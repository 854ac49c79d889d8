package mafia

import (
	"errors"
	"testing"

	"pmafia/internal/dataset"
	"pmafia/internal/grid"
	"pmafia/internal/histogram"
)

func TestValidateRejectsOverwideUniformBins(t *testing.T) {
	cfg := Config{Grid: UniformGrid, UniformBins: 300}
	var bce *grid.BinCountError
	if err := cfg.Validate(4); !errors.As(err, &bce) {
		t.Fatalf("UniformBins=300: got %T (%v), want *grid.BinCountError", err, err)
	} else if bce.Bins != 300 {
		t.Errorf("error reports %d bins, want 300", bce.Bins)
	}
	cfg = Config{Grid: UniformGrid, UniformBins: grid.MaxBins}
	if err := cfg.Validate(4); err != nil {
		t.Errorf("UniformBins at the cap: %v", err)
	}
}

func TestValidateRejectsOverwideVariableBins(t *testing.T) {
	cfg := Config{Grid: UniformVariableGrid, UniformBinsPerDim: []int{10, 300, 10}}
	var bce *grid.BinCountError
	if err := cfg.Validate(3); !errors.As(err, &bce) {
		t.Fatalf("UniformBinsPerDim with 300: got %T (%v), want *grid.BinCountError", err, err)
	} else if bce.Dim != 1 {
		t.Errorf("error reports dim %d, want 1", bce.Dim)
	}
	cfg = Config{Grid: UniformVariableGrid, UniformBinsPerDim: []int{10, grid.MaxBins, 10}}
	if err := cfg.Validate(3); err != nil {
		t.Errorf("UniformBinsPerDim at the cap: %v", err)
	}
}

func TestValidateRejectsOverwideAdaptiveEquiSplit(t *testing.T) {
	cfg := Config{Adaptive: grid.AdaptiveParams{EquiSplit: 300}}
	var bce *grid.BinCountError
	if err := cfg.Validate(4); !errors.As(err, &bce) {
		t.Fatalf("EquiSplit=300: got %T (%v), want *grid.BinCountError", err, err)
	}
}

func TestValidateRejectsOverwideFineUnits(t *testing.T) {
	cfg := Config{FineUnits: grid.MaxFineUnits + 1}
	if err := cfg.Validate(4); err == nil {
		t.Fatalf("FineUnits=%d accepted; the model loader refuses it", cfg.FineUnits)
	}
	cfg = Config{FineUnits: grid.MaxFineUnits}
	if err := cfg.Validate(4); err != nil {
		t.Errorf("FineUnits at the cap: %v", err)
	}
	// Ingest refits hand the engine a precomputed histogram instead.
	h := histogram.New([]dataset.Range{{Lo: 0, Hi: 1}}, grid.MaxFineUnits+1)
	h.N = 1
	cfg = Config{Hist: h}
	if err := cfg.Validate(1); err == nil {
		t.Fatalf("a %d-unit precomputed histogram was accepted", h.Units)
	}
}
