package twsim_test

import (
	"math"
	"strings"
	"testing"

	twsim "repro"
)

// subseqBackends opens the two backends the subsequence tests build over:
// a *DB and a two-shard *ShardedDB whose shards build on two goroutines.
func subseqBackends(t *testing.T) map[string]twsim.Backend {
	t.Helper()
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	sharded, err := twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 2, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	return map[string]twsim.Backend{"db": db, "sharded": sharded}
}

// TestSubseqHugeStep: a step near math.MaxInt indexes one window at offset
// 0 per record and fitting length. The window loop used to add step to the
// offset, which overflowed, passed the bound check and sliced out of range
// (on a sharded backend, on a fan-out goroutine, ending the process).
func TestSubseqHugeStep(t *testing.T) {
	records := [][]float64{{1, 2, 3, 4, 5, 6}, {9, 8, 7, 6, 5, 4}}
	for name, b := range subseqBackends(t) {
		t.Run(name, func(t *testing.T) {
			ids, err := b.AddBatch(records)
			if err != nil {
				t.Fatal(err)
			}
			// Length 7 fits no record; 3 and 5 fit both.
			idx, err := b.BuildSubseqIndex([]int{3, 5, 7}, math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			if got := idx.NumWindows(); got != 4 {
				t.Fatalf("NumWindows = %d, want 4 (one per record and fitting length)", got)
			}
			for i, r := range records {
				res, err := idx.Search(r[:3], 0)
				if err != nil {
					t.Fatal(err)
				}
				want := twsim.SubMatch{ID: ids[i], Offset: 0, Len: 3, Dist: 0}
				if len(res.Matches) != 1 || res.Matches[0] != want {
					t.Fatalf("record %d: matches %+v, want [%+v]", i, res.Matches, want)
				}
			}
		})
	}
}

// TestSubseqRepeatedWindowLength: a window length given twice is refused.
// It used to index every window twice and return each match twice.
func TestSubseqRepeatedWindowLength(t *testing.T) {
	for name, b := range subseqBackends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := b.AddBatch([][]float64{{1, 2, 3, 4, 5, 6}, {9, 8, 7, 6, 5, 4}}); err != nil {
				t.Fatal(err)
			}
			for _, lens := range [][]int{{3, 3}, {3, 4, 3}} {
				if idx, err := b.BuildSubseqIndex(lens, 1); err == nil {
					idx.Close()
					t.Fatalf("BuildSubseqIndex(%v) succeeded, want an error", lens)
				}
			}
			idx, err := b.BuildSubseqIndex([]int{3, 4}, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			if got := idx.NumWindows(); got != 14 {
				t.Fatalf("NumWindows = %d, want 14", got)
			}
		})
	}
}

// overBudgetRecords and overBudgetLens make a build the window budget
// refuses by arithmetic alone: eight records of 1 000 elements (8 000
// elements in all) and window lengths 1–800 at step 1 hold
// 8 · Σ_{w=1}^{800} (1 001 − w) = 3 843 200 windows, over
// core.MaxSubseqWindows. Split over two shards each half is under it.
func overBudgetRecords() [][]float64 {
	records := make([][]float64, 8)
	for i := range records {
		records[i] = make([]float64, 1000)
		for j := range records[i] {
			records[i][j] = float64((i*7 + j) % 13)
		}
	}
	return records
}

func overBudgetLens() []int {
	lens := make([]int, 800)
	for i := range lens {
		lens[i] = i + 1
	}
	return lens
}

// TestSubseqBuildOverBudget: a build whose window count, from the stored
// lengths, is over the budget is refused before it scans, with the count in
// the error — on a sharded backend for the sum over the shards, though each
// shard's share is under it — and a build under it still succeeds.
func TestSubseqBuildOverBudget(t *testing.T) {
	for name, b := range subseqBackends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := b.AddBatch(overBudgetRecords()); err != nil {
				t.Fatal(err)
			}
			idx, err := b.BuildSubseqIndex(overBudgetLens(), 1)
			if err == nil {
				idx.Close()
				t.Fatal("a build of 3 843 200 windows succeeded")
			}
			if !strings.Contains(err.Error(), "3843200 windows") {
				t.Fatalf("error %q does not name the count", err)
			}
			idx, err = b.BuildSubseqIndex([]int{100}, 10)
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			if got := idx.NumWindows(); got != 8*91 {
				t.Fatalf("NumWindows = %d, want %d", got, 8*91)
			}
		})
	}
}
