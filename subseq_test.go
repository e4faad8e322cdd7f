package twsim_test

import (
	"math"
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
