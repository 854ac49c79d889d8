package ckpt

import (
	"errors"
	"testing"

	"pmafia/internal/grid"
)

// gridFrame encodes a one-dimension grid frame whose dimension claims
// fineUnits fine units and nbins bins but carries a single bin record
// covering every unit.
func gridFrame(fineUnits, nbins uint32) []byte {
	var e enc
	e.u32(1) // dims
	e.u32(0) // index
	e.f64(0) // domain lo
	e.f64(1) // domain hi
	e.u8(0)  // uniform
	e.u32(fineUnits)
	e.u32(nbins)
	e.f64(0)
	e.f64(1)
	e.u32(0)
	e.u32(fineUnits)
	e.u64(100)
	e.f64(1)
	return e.buf.Bytes()
}

// TestDecodeGridBoundsAllocations: a grid frame's counts are untrusted,
// so a bin count the frame cannot hold, or a fine-unit count past
// grid.MaxFineUnits, must fail as corrupt before it sizes a table.
func TestDecodeGridBoundsAllocations(t *testing.T) {
	if _, err := decodeGrid(gridFrame(grid.MaxFineUnits, 1), 100); err != nil {
		t.Fatalf("grid at the fine-unit cap: %v", err)
	}
	for name, frame := range map[string][]byte{
		"bins":       gridFrame(1000, 1<<31),
		"fine units": gridFrame(grid.MaxFineUnits+1, 1),
	} {
		if _, err := decodeGrid(frame, 100); !errors.Is(err, ErrCorrupt) {
			t.Errorf("hostile %s count: got %v, want ErrCorrupt", name, err)
		}
	}
}
