package mafia

import (
	"errors"
	"fmt"

	"pmafia/internal/dataset"
	"pmafia/internal/grid"
	"pmafia/internal/unit"
)

// Populations are the CDU populations a single-rank fit counted, kept
// so that a later fit over the same records with more appended counts
// only the appended ones (Config.Populations). A population is a sum
// over records: a level's counts over the first N records plus a scan
// of the records past them equal a full count, as long as the level's
// CDUs and the bins they use are the ones counted before.
type Populations struct {
	// N is the number of records the counts cover: the first N records
	// of the source that fit read.
	N int
	// Grid is the grid the counts were made under. Only its bin
	// mapping matters: each dimension's domain, fine-unit count and bin
	// unit ranges (grid.Dim.SameBinning).
	Grid *grid.Grid
	// Levels holds each counted level's CDUs and populations, level 2
	// first.
	Levels []LevelPopulations
}

// LevelPopulations is one level's counted CDUs and their populations,
// aligned entry for entry.
type LevelPopulations struct {
	CDUs   *unit.Array
	Counts []int64
}

// validate rejects populations a dims-dimensional fit cannot read.
func (p *Populations) validate(dims int) error {
	if p.N < 0 {
		return fmt.Errorf("mafia: populations cover %d records", p.N)
	}
	if p.Grid == nil {
		if p.N > 0 || len(p.Levels) > 0 {
			return errors.New("mafia: populations without the grid they were counted under")
		}
		return nil
	}
	if len(p.Grid.Dims) != dims {
		return fmt.Errorf("mafia: populations counted over %d dims, data has %d", len(p.Grid.Dims), dims)
	}
	for i, lv := range p.Levels {
		if lv.CDUs == nil || lv.CDUs.K != i+2 || len(lv.Counts) != lv.CDUs.Len() {
			return fmt.Errorf("mafia: populations of level %d are not %d-dimensional CDUs with one count each", i+2, i+2)
		}
	}
	return nil
}

// storedCounts returns the populations Config.Populations holds for
// cdus, aligned with cdus, or nil unless every CDU was counted there
// and every dimension a CDU constrains kept its bin mapping.
func (e *engine) storedCounts(cdus *unit.Array) []int64 {
	k := cdus.K
	if e.sameBins == nil || k-2 >= len(e.cfg.Populations.Levels) {
		return nil
	}
	for _, dim := range cdus.Dims {
		if !e.sameBins[dim] {
			return nil
		}
	}
	lv := e.cfg.Populations.Levels[k-2]
	at := make(map[string]int, lv.CDUs.Len())
	for i := 0; i < lv.CDUs.Len(); i++ {
		at[lv.CDUs.Key(i)] = i
	}
	counts := make([]int64, cdus.Len())
	for i := range counts {
		j, ok := at[cdus.Key(i)]
		if !ok {
			return nil
		}
		counts[i] = lv.Counts[j]
	}
	return counts
}

// suffix is the records of a source from record from on. Its scanner
// skips the records before from chunk by chunk, which costs an
// in-memory source only the slicing.
type suffix struct {
	dataset.Source
	from int
}

func (s suffix) NumRecords() int { return s.Source.NumRecords() - s.from }

func (s suffix) Scan(chunkRecords int) dataset.Scanner {
	return &suffixScanner{Scanner: s.Source.Scan(chunkRecords), skip: s.from, d: s.Dims()}
}

type suffixScanner struct {
	dataset.Scanner
	skip, d int
}

func (s *suffixScanner) Next() ([]float64, int) {
	for {
		chunk, n := s.Scanner.Next()
		if n == 0 || s.skip == 0 {
			return chunk, n
		}
		if n <= s.skip {
			s.skip -= n
			continue
		}
		chunk, n = chunk[s.skip*s.d:], n-s.skip
		s.skip = 0
		return chunk, n
	}
}
