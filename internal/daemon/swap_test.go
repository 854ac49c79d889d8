package daemon

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/mafia"
	"pmafia/internal/modelio"
	"pmafia/internal/obs"
)

// fitDistinct fits a model whose cluster lives in the given columns,
// so models fitted over different column sets label a shared query
// matrix differently.
func fitDistinct(t *testing.T, cols []int, seed uint64) (*mafia.Result, *dataset.Matrix) {
	t.Helper()
	ext := make([]dataset.Range, len(cols))
	for i := range ext {
		ext[i] = dataset.Range{Lo: 20, Hi: 32}
	}
	m, _, err := datagen.Generate(datagen.Spec{
		Dims:     5,
		Records:  2000,
		Clusters: []datagen.Cluster{datagen.UniformBox(cols, ext, 0)},
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mafia.Run(m, mafia.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res, m
}

func labelsEqual(got, want []int32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// assignLabels posts the query matrix as CSV and decodes the labels.
func assignLabels(t *testing.T, base, model string, body []byte) []int32 {
	t.Helper()
	resp, raw := postAssign(t, base, model, "text/csv", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assign status %d: %s", resp.StatusCode, raw)
	}
	var ar assignResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	return ar.Labels
}

// TestStaleModelReloaded is the stale-pinning regression: overwriting
// a served .pmfm must be picked up by the freshness check — the old
// cache entry pinned the first load until LRU eviction, so a refit
// under the same name was never served.
func TestStaleModelReloaded(t *testing.T) {
	resA, qry := fitDistinct(t, []int{0, 2, 4}, 31)
	resB, _ := fitDistinct(t, []int{1, 3}, 32)
	wantA, err := resA.Assign(qry, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := resB.Assign(qry, 0)
	if err != nil {
		t.Fatal(err)
	}
	if labelsEqual(wantA, wantB) {
		t.Fatal("test models label the query identically; pick different columns")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "a.pmfm")
	if err := modelio.SaveMeta(path, resA, 1); err != nil {
		t.Fatal(err)
	}
	d, base := startDaemon(t, Config{ModelDir: dir, SwapCheck: time.Millisecond})
	defer d.Shutdown(context.Background())

	body := csvBody(qry)
	if got := assignLabels(t, base, "a.pmfm", body); !labelsEqual(got, wantA) {
		t.Fatal("first request does not serve generation 1")
	}

	// Overwrite with the next generation; the next requests must start
	// serving it without an eviction or restart.
	if err := modelio.SaveMeta(path, resB, 2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		got := assignLabels(t, base, "a.pmfm", body)
		if labelsEqual(got, wantB) {
			break
		}
		if !labelsEqual(got, wantA) {
			t.Fatal("response matches neither generation: torn model")
		}
		if time.Now().After(deadline) {
			t.Fatal("overwritten model never served: stale model pinned")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := d.rec.Counter(obs.CtrSwapSwaps); got < 1 {
		t.Errorf("swap.swaps = %d after a hot swap", got)
	}

	// /models reports the resident generation.
	resp, err := http.Get(base + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []modelInfo
	err = json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !infos[0].Loaded || infos[0].Gen != 2 {
		t.Errorf("/models after swap = %+v, want generation 2 resident", infos)
	}
}

// TestSwapUnderLoad is the swap crash matrix: generations are swapped
// at randomized points under sustained framed+CSV traffic, and every
// response must be bit-identical to one of the two generations'
// oracles — the torn-model failure mode is a response that mixes them.
// A corrupt overwrite must keep the previous generation serving, and a
// good model restores convergence.
func TestSwapUnderLoad(t *testing.T) {
	resA, qry := fitDistinct(t, []int{0, 2, 4}, 33)
	resB, _ := fitDistinct(t, []int{1, 3}, 34)
	wantA, err := resA.Assign(qry, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := resB.Assign(qry, 0)
	if err != nil {
		t.Fatal(err)
	}
	if labelsEqual(wantA, wantB) {
		t.Fatal("oracles agree; the swap would be unobservable")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "m.pmfm")
	if err := modelio.SaveMeta(path, resA, 1); err != nil {
		t.Fatal(err)
	}
	d, base := startDaemon(t, Config{
		ModelDir:  dir,
		SwapCheck: time.Millisecond,
		Inflight:  16,
	})
	defer d.Shutdown(context.Background())

	// Writer: alternate generations at randomized points while the
	// clients hammer the model.
	const gens = 30
	var lastB atomic.Bool // generation parity of the newest file
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(35))
		for g := 0; g < gens; g++ {
			time.Sleep(time.Duration(1+rng.Intn(7)) * time.Millisecond)
			res, isB := resA, false
			if g%2 == 0 {
				res, isB = resB, true
			}
			if err := modelio.SaveMeta(path, res, uint64(g+2)); err != nil {
				t.Error(err)
				return
			}
			lastB.Store(isB)
		}
	}()

	const dims = 5
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(36 + c)))
			for i := 0; ; i++ {
				select {
				case <-writerDone:
					return
				default:
				}
				lo := rng.Intn(qry.NumRecords() - 8)
				n := 1 + rng.Intn(7)
				body, err := EncodeFrame(dims, qry.Values[lo*dims:(lo+n)*dims])
				if err != nil {
					t.Error(err)
					return
				}
				resp, raw := postAssign(t, base, "m.pmfm", ContentTypeFrame, body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d iter %d: status %d: %s", c, i, resp.StatusCode, raw)
					return
				}
				matchA, matchB := true, true
				for j := 0; j < n; j++ {
					got := int32(binary.LittleEndian.Uint32(raw[4*j:]))
					matchA = matchA && got == wantA[lo+j]
					matchB = matchB && got == wantB[lo+j]
				}
				if !matchA && !matchB {
					t.Errorf("client %d iter %d rows [%d,%d): response matches neither generation — torn model", c, i, lo, lo+n)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Converge on the newest generation.
	body := csvBody(qry)
	final := wantA
	if lastB.Load() {
		final = wantB
	}
	deadline := time.Now().Add(15 * time.Second)
	for !labelsEqual(assignLabels(t, base, "m.pmfm", body), final) {
		if time.Now().After(deadline) {
			t.Fatal("daemon never converged on the last written generation")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A corrupt overwrite keeps the previous generation serving and
	// surfaces as swap.errors, never as a torn or failing response.
	if err := os.WriteFile(path, []byte("PMFMgarbage that is not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for d.rec.Counter(obs.CtrSwapErrors) == 0 {
		if got := assignLabels(t, base, "m.pmfm", body); !labelsEqual(got, final) {
			t.Fatal("corrupt overwrite changed the served model")
		}
		if time.Now().After(deadline) {
			t.Fatal("swap.errors never counted the corrupt overwrite")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := assignLabels(t, base, "m.pmfm", body); !labelsEqual(got, final) {
		t.Fatal("corrupt overwrite changed the served model")
	}

	// A good model lands after the failure and is swapped in.
	if err := modelio.SaveMeta(path, resB, gens+10); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for !labelsEqual(assignLabels(t, base, "m.pmfm", body), wantB) {
		if time.Now().After(deadline) {
			t.Fatal("daemon never recovered from the corrupt overwrite")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
