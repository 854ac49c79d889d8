package modelio_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/mafia"
	"pmafia/internal/modelio"
	"pmafia/internal/rng"
	"pmafia/internal/sp2"
)

// fit runs the engine on generated data and returns both.
func fit(t *testing.T, seed uint64) (*mafia.Result, *dataset.Matrix) {
	t.Helper()
	ext := []dataset.Range{{Lo: 20, Hi: 32}, {Lo: 20, Hi: 32}, {Lo: 20, Hi: 32}}
	m, _, err := datagen.Generate(datagen.Spec{
		Dims:     6,
		Records:  3000,
		Clusters: []datagen.Cluster{datagen.UniformBox([]int{1, 3, 4}, ext, 0)},
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mafia.Run(m, mafia.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("fit produced no clusters")
	}
	return res, m
}

func TestRoundTrip(t *testing.T) {
	res, m := fit(t, 3)
	path := filepath.Join(t.TempDir(), "model.pmfm")
	if err := modelio.Save(path, res); err != nil {
		t.Fatal(err)
	}
	got, err := modelio.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	if got.N != res.N {
		t.Errorf("N: %d vs %d", got.N, res.N)
	}
	if len(got.Levels) != len(res.Levels) {
		t.Fatalf("levels: %d vs %d", len(got.Levels), len(res.Levels))
	}
	for i := range res.Levels {
		if got.Levels[i] != res.Levels[i] {
			t.Errorf("level %d: %+v vs %+v", i, got.Levels[i], res.Levels[i])
		}
	}
	if len(got.Clusters) != len(res.Clusters) {
		t.Fatalf("clusters: %d vs %d", len(got.Clusters), len(res.Clusters))
	}
	for i := range res.Clusters {
		if got.Clusters[i].String() != res.Clusters[i].String() {
			t.Errorf("cluster %d: %v vs %v", i, got.Clusters[i].String(), res.Clusters[i].String())
		}
		if got.Clusters[i].DNF(got.Grid) != res.Clusters[i].DNF(res.Grid) {
			t.Errorf("cluster %d DNF differs after round trip", i)
		}
	}

	// The loaded grid must label bit-identically: compare a full
	// assignment pass on the training data plus off-domain probes.
	want, err := res.Assign(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Assign(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("record %d: loaded model labels %d, original %d", i, have[i], want[i])
		}
	}
	r := rng.New(9)
	rec := make([]float64, len(res.Grid.Dims))
	for probe := 0; probe < 500; probe++ {
		for j := range rec {
			rec[j] = r.In(-50, 150)
		}
		if a, b := res.AssignRecord(rec), got.AssignRecord(rec); a != b {
			t.Fatalf("probe %v: %d vs %d", rec, b, a)
		}
	}
}

func TestWriteReadBuffer(t *testing.T) {
	res, _ := fit(t, 4)
	var buf bytes.Buffer
	if err := modelio.Write(&buf, res); err != nil {
		t.Fatal(err)
	}
	if _, err := modelio.Read(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	res, _ := fit(t, 5)
	var buf bytes.Buffer
	if err := modelio.Write(&buf, res); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	flip := append([]byte(nil), raw...)
	flip[len(flip)/2] ^= 0x40 // payload bit flip
	if _, err := modelio.Read(bytes.NewReader(flip)); !errors.Is(err, modelio.ErrCorrupt) {
		t.Errorf("bit flip: got %v, want ErrCorrupt", err)
	}

	bad := append([]byte(nil), raw...)
	bad[0] = 'X' // magic
	if _, err := modelio.Read(bytes.NewReader(bad)); !errors.Is(err, modelio.ErrCorrupt) {
		t.Errorf("bad magic: got %v, want ErrCorrupt", err)
	}

	if _, err := modelio.Read(bytes.NewReader(raw[:len(raw)-7])); !errors.Is(err, modelio.ErrCorrupt) {
		t.Error("truncated payload accepted")
	}
	if _, err := modelio.Read(bytes.NewReader(raw[:10])); !errors.Is(err, modelio.ErrCorrupt) {
		t.Error("truncated header accepted")
	}

	ver := append([]byte(nil), raw...)
	ver[4] = 99 // unsupported version
	if _, err := modelio.Read(bytes.NewReader(ver)); err == nil {
		t.Error("unsupported version accepted")
	}
}

func TestMetaRoundTrip(t *testing.T) {
	res, _ := fit(t, 8)
	path := filepath.Join(t.TempDir(), "model.pmfm")
	if err := modelio.SaveMeta(path, res, 42); err != nil {
		t.Fatal(err)
	}
	got, meta, err := modelio.LoadMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 42 {
		t.Errorf("generation: got %d, want 42", meta.Generation)
	}
	if meta.Fingerprint == 0 {
		t.Error("fingerprint is zero")
	}
	if got.N != res.N || len(got.Clusters) != len(res.Clusters) {
		t.Errorf("payload differs after meta round trip")
	}

	// Same result, different generation: the fingerprint must not move
	// (it hashes the payload, not the header).
	if err := modelio.SaveMeta(path, res, 43); err != nil {
		t.Fatal(err)
	}
	_, meta2, err := modelio.LoadMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Generation != 43 {
		t.Errorf("generation: got %d, want 43", meta2.Generation)
	}
	if meta2.Fingerprint != meta.Fingerprint {
		t.Errorf("fingerprint moved across generations of the same payload: %x vs %x",
			meta2.Fingerprint, meta.Fingerprint)
	}
}

// TestSaveFitOverAllNaNDimension fits with the domains dataset.Domains
// computes for a matrix with a dimension that holds nothing but NaN.
// That dimension's domain is [0, 1), so the model saves and loads.
func TestSaveFitOverAllNaNDimension(t *testing.T) {
	_, m := fit(t, 10)
	for p := 2; p < len(m.Values); p += m.D {
		m.Values[p] = math.NaN()
	}
	domains, err := dataset.Domains(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mafia.RunParallel([]dataset.Source{m}, domains, mafia.Config{}, sp2.Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.pmfm")
	if err := modelio.SaveMeta(path, res, 1); err != nil {
		t.Fatal(err)
	}
	got, _, err := modelio.LoadMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != res.N || len(got.Clusters) != len(res.Clusters) {
		t.Errorf("payload differs after the round trip")
	}
}

// TestReadsVersion1 rebuilds a v1-framed file (20-byte header, no
// generation/fingerprint fields) from a current write and checks the
// reader still accepts it, reporting generation 0 and a payload-derived
// fingerprint that matches the v2 encoding of the same model.
func TestReadsVersion1(t *testing.T) {
	res, _ := fit(t, 9)
	var buf bytes.Buffer
	if err := modelio.Write(&buf, res); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	const v1HeaderLen, v2HeaderLen = 20, 36
	v1 := make([]byte, 0, len(raw)-16)
	v1 = append(v1, raw[:v1HeaderLen]...)
	v1 = append(v1, raw[v2HeaderLen:]...)
	binary.LittleEndian.PutUint32(v1[4:], 1)

	got, meta, err := modelio.ReadMeta(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 0 {
		t.Errorf("v1 generation: got %d, want 0", meta.Generation)
	}
	_, v2meta, err := modelio.ReadMeta(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Fingerprint != v2meta.Fingerprint {
		t.Errorf("v1 fingerprint %x differs from v2 fingerprint %x of the same payload",
			meta.Fingerprint, v2meta.Fingerprint)
	}
	if got.N != res.N || len(got.Clusters) != len(res.Clusters) {
		t.Error("v1 payload decoded differently")
	}

	// And via the file loader, including its size-vs-header check.
	path := filepath.Join(t.TempDir(), "v1.pmfm")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := modelio.LoadMeta(path); err != nil {
		t.Fatalf("LoadMeta on a v1 file: %v", err)
	}
}

func TestLoadRejectsSizeMismatch(t *testing.T) {
	res, _ := fit(t, 6)
	path := filepath.Join(t.TempDir(), "model.pmfm")
	if err := modelio.Save(path, res); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, 0xEE), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := modelio.Load(path); !errors.Is(err, modelio.ErrCorrupt) {
		t.Errorf("grown file: got %v, want ErrCorrupt", err)
	}
}

func TestSaveLeavesNoTempOnSuccess(t *testing.T) {
	res, _ := fit(t, 7)
	dir := t.TempDir()
	if err := modelio.Save(filepath.Join(dir, "m.pmfm"), res); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "m.pmfm" {
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want just m.pmfm", names)
	}
}
