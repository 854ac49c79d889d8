package modelio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pmafia/internal/assign"
	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/grid"
	"pmafia/internal/mafia"
)

// oneDimPayload encodes, with the payload writer itself rather than
// through a Grid, a model of one dimension whose single bin covers
// fineUnits fine units, with no levels and no clusters.
func oneDimPayload(fineUnits uint32) []byte {
	return gridPayload(1, fineUnits)
}

// gridPayload is oneDimPayload over dims dimensions, each with
// fineUnits fine units in one bin.
func gridPayload(dims int, fineUnits uint32) []byte {
	var e enc
	e.u64(100) // records
	e.f64(0)   // seconds
	e.u32(uint32(dims))
	for i := 0; i < dims; i++ {
		e.u32(uint32(i)) // index
		e.f64(0)         // domain lo
		e.f64(1)         // domain hi
		e.u8(0)          // uniform
		e.u32(fineUnits)
		e.u32(1) // bins
		e.f64(0)
		e.f64(1)
		e.u32(0)
		e.u32(fineUnits)
		e.u64(100)
		e.f64(1)
	}
	e.u32(0) // levels
	e.u32(0) // clusters
	return e.buf.Bytes()
}

// TestLoadRejectsOverwideFineUnits: a checksum-valid file of a few
// hundred bytes must not make the loader allocate a table sized by a
// hostile fine-unit count. Counts past grid.MaxFineUnits are corrupt;
// the cap itself loads.
func TestLoadRejectsOverwideFineUnits(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		units uint32
		ok    bool
	}{
		{grid.MaxFineUnits, true},
		{grid.MaxFineUnits + 1, false},
		{1 << 28, false},
	} {
		p := oneDimPayload(tc.units)
		path := filepath.Join(dir, "m.pmfm")
		if err := os.WriteFile(path, append(header(p, 1), p...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if tc.ok && err != nil {
			t.Errorf("%d fine units: %v", tc.units, err)
		}
		if !tc.ok && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%d fine units: got %v, want ErrCorrupt", tc.units, err)
		}
	}
}

// TestLoadRejectsOversizedGrid: every dimension within the per-dim
// cap is not enough. A checksum-valid model of about 17 KB with 255
// dims of 2^20 fine units each would size about 255 MB of grid tables
// (and twice that in the assignment index), so a grid past
// grid.MaxTotalFineUnits in all is corrupt; a grid at that total loads.
func TestLoadRejectsOversizedGrid(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		dims  int
		units uint32
		ok    bool
	}{
		{8, grid.MaxTotalFineUnits / 8, true},
		{9, grid.MaxTotalFineUnits / 8, false},
		{255, grid.MaxFineUnits, false},
	} {
		p := gridPayload(tc.dims, tc.units)
		path := filepath.Join(dir, "m.pmfm")
		if err := os.WriteFile(path, append(header(p, 1), p...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if tc.ok && err != nil {
			t.Errorf("%d dims × %d fine units: %v", tc.dims, tc.units, err)
		}
		if !tc.ok && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%d dims × %d fine units: got %v, want ErrCorrupt", tc.dims, tc.units, err)
		}
	}
}

// FuzzLoad fuzzes the model decoder behind Load. Each input is a
// payload that the target frames with a correct header and CRC32C, so
// mutations reach decodePayload instead of failing the checksum. A
// payload must fail with ErrCorrupt or load; a model that loads must
// compile into an assignment index or fail with an error, because the
// daemon compiles every model it loads. Neither step may panic.
func FuzzLoad(f *testing.F) {
	ext := []dataset.Range{{Lo: 20, Hi: 32}, {Lo: 20, Hi: 32}}
	m, _, err := datagen.Generate(datagen.Spec{
		Dims:     4,
		Records:  2000,
		Clusters: []datagen.Cluster{datagen.UniformBox([]int{0, 2}, ext, 0)},
		Seed:     1,
	})
	if err != nil {
		f.Fatal(err)
	}
	res, err := mafia.Run(m, mafia.Config{})
	if err != nil {
		f.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		f.Fatal("seed fit produced no clusters")
	}
	fitted, err := encodePayload(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fitted)
	f.Add(oneDimPayload(50))
	f.Add(oneDimPayload(grid.MaxFineUnits + 1))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := Read(bytes.NewReader(append(header(payload, 1), payload...)))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		assign.New(res.Grid, res.Clusters) // an error is fine; a panic is not
	})
}
