package twsim_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	twsim "repro"
)

// bruteScan is the no-false-dismissal oracle the public query modes are
// checked against: a linear scan computing, for every live sequence, the
// exact distance the query answers — the unconstrained Distance for band 0,
// BandDistance otherwise — sorted the way Search reports matches (distance,
// then ID). Its first k entries at eps = +Inf are the exact k-NN answer.
func bruteScan(data [][]float64, ids []twsim.ID, q []float64, base twsim.Base, eps float64, band int) []twsim.Match {
	var out []twsim.Match
	for i, s := range data {
		d := twsim.Distance(s, q, base)
		if band > 0 {
			d = twsim.BandDistance(s, q, base, band)
		}
		if d <= eps {
			out = append(out, twsim.Match{ID: ids[i], Dist: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// nearestK runs the k-NN door under an explicit band and returns only the
// matches.
func nearestK(db twsim.Backend, q []float64, k, band int) ([]twsim.Match, error) {
	res, err := db.NearestKCtx(context.Background(), q, k, band)
	if err != nil {
		return nil, err
	}
	return res.Matches, nil
}

// TestBandedSearchMatchesBruteForce: a banded index search must be
// bit-identical to the brute-force banded scan — across all three bases,
// both engines (single DB and ShardedDB), and serial vs parallel
// refinement. This is the tentpole soundness claim: every cascade tier
// lower-bounds BandDistance, so no banded match is ever dismissed.
func TestBandedSearchMatchesBruteForce(t *testing.T) {
	bases := map[string]twsim.Base{"linf": twsim.BaseLInf, "l1": twsim.BaseL1, "l2sq": twsim.BaseL2Sq}
	data := randomWalks(2027, 120, 12, 40)
	for name, base := range bases {
		for _, workers := range []int{1, 4} {
			for _, sharded := range []bool{false, true} {
				label := name + map[bool]string{false: "/db", true: "/sharded"}[sharded]
				if workers != 1 {
					label += "/workers4"
				}
				t.Run(label, func(t *testing.T) {
					opts := twsim.Options{Base: base, RefineWorkers: workers}
					var db twsim.Backend
					var err error
					if sharded {
						db, err = twsim.OpenMemSharded(twsim.ShardedOptions{Options: opts, Shards: 3})
					} else {
						db, err = twsim.OpenMem(opts)
					}
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					ids, err := db.AddBatch(data)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(31))
					for trial := 0; trial < 8; trial++ {
						q := append([]float64(nil), data[rng.Intn(len(data))]...)
						for i := range q {
							q[i] += (rng.Float64() - 0.5) * 0.1
						}
						eps := 0.1 + rng.Float64()*0.6
						band := 1 + rng.Intn(6)
						want := bruteScan(data, ids, q, base, eps, band)
						res, err := db.SearchCtx(context.Background(), q, eps, band)
						if err != nil {
							t.Fatal(err)
						}
						if len(res.Matches) != len(want) {
							t.Fatalf("trial %d eps=%g band=%d: index %d matches, brute force %d",
								trial, eps, band, len(res.Matches), len(want))
						}
						for i := range want {
							if res.Matches[i] != want[i] {
								t.Fatalf("trial %d match %d: index %+v, brute force %+v",
									trial, i, res.Matches[i], want[i])
							}
						}
						// The conservation law must hold tier by tier under a band.
						st := res.Stats
						pruned := st.LBPAAPruned + st.LBKeoghPruned + st.LBImprovedPruned + st.CorridorPruned
						if pruned+st.DTWCalls != st.Candidates {
							t.Fatalf("trial %d: pruned %d + dtw %d != candidates %d",
								trial, pruned, st.DTWCalls, st.Candidates)
						}
					}
				})
			}
		}
	}
}

// TestNearestKBandMatchesBruteForce: banded k-NN against the brute-force
// banded top-k, on both engines.
func TestNearestKBandMatchesBruteForce(t *testing.T) {
	data := randomWalks(2029, 90, 10, 30)
	for _, sharded := range []bool{false, true} {
		name := map[bool]string{false: "db", true: "sharded"}[sharded]
		t.Run(name, func(t *testing.T) {
			var db twsim.Backend
			var err error
			if sharded {
				db, err = twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 3})
			} else {
				db, err = twsim.OpenMem(twsim.Options{})
			}
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			ids, err := db.AddBatch(data)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(37))
			for trial := 0; trial < 8; trial++ {
				q := append([]float64(nil), data[rng.Intn(len(data))]...)
				for i := range q {
					q[i] += (rng.Float64() - 0.5) * 0.08
				}
				k := 1 + rng.Intn(7)
				band := 1 + rng.Intn(5)
				all := bruteScan(data, ids, q, twsim.BaseLInf, 1e18, band)
				want := all
				if len(want) > k {
					want = want[:k]
				}
				got, err := nearestK(db, q, k, band)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d k=%d band=%d: index %d, brute force %d",
						trial, k, band, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d rank %d: index %+v, brute force %+v",
							trial, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestNegativeBandRejected: every band-carrying entry point on both engines
// must reject a negative half-width instead of answering under an undefined
// distance.
func TestNegativeBandRejected(t *testing.T) {
	data := randomWalks(2033, 10, 8, 16)
	for _, sharded := range []bool{false, true} {
		name := map[bool]string{false: "db", true: "sharded"}[sharded]
		t.Run(name, func(t *testing.T) {
			var db twsim.Backend
			var err error
			if sharded {
				db, err = twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 2})
			} else {
				db, err = twsim.OpenMem(twsim.Options{})
			}
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.AddBatch(data); err != nil {
				t.Fatal(err)
			}
			q := data[0]
			ctx := context.Background()
			if _, err := db.SearchCtx(ctx, q, 0.5, -1); err == nil {
				t.Error("SearchCtx(band -1) succeeded, want error")
			}
			if _, err := db.NearestKCtx(ctx, q, 3, -2); err == nil {
				t.Error("NearestKCtx(band -2) succeeded, want error")
			}
			if _, err := db.SearchBatchCtx(ctx, [][]float64{q}, 0.5, -3, 0); err == nil {
				t.Error("SearchBatchCtx(band -3) succeeded, want error")
			}
		})
	}
}

// TestEnvelopeSidecarPersistence: the PAA envelope store survives a
// close/reopen through its sidecar file, and any corruption of the sidecar
// is healed by a rebuild from the heap — never trusted, never fatal.
func TestEnvelopeSidecarPersistence(t *testing.T) {
	dir := t.TempDir()
	data := randomWalks(2039, 40, 8, 24)
	db, err := twsim.Create(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := db.AddBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	sidecar := filepath.Join(dir, "envelopes.paa")
	if _, err := os.Stat(sidecar); err != nil {
		t.Fatalf("sidecar not written on close: %v", err)
	}

	// Reopen: the sidecar loads and the store passes the full fsck.
	db, err = twsim.Open(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("verify after reopen: %v", err)
	}
	want, err := db.SearchCtx(context.Background(), data[3], 0.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the sidecar (flip one payload byte). Open must fall back to a
	// rebuild from the heap and still answer identically.
	raw, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(sidecar, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = twsim.Open(dir, twsim.Options{})
	if err != nil {
		t.Fatalf("open with corrupt sidecar: %v", err)
	}
	defer db.Close()
	if err := db.Verify(); err != nil {
		t.Fatalf("verify after rebuild: %v", err)
	}
	got, err := db.SearchCtx(context.Background(), data[3], 0.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("after rebuild: %d matches, want %d", len(got.Matches), len(want.Matches))
	}
	for i := range want.Matches {
		if got.Matches[i] != want.Matches[i] {
			t.Fatalf("after rebuild match %d: %+v, want %+v", i, got.Matches[i], want.Matches[i])
		}
	}
	// A removal keeps the store in lockstep (fsck checks env count == live).
	if ok, err := db.Remove(ids[0]); err != nil || !ok {
		t.Fatalf("Remove: %v, %v", ok, err)
	}
	if err := db.Verify(); err != nil {
		t.Fatalf("verify after remove: %v", err)
	}
}

// TestBandedEnvelopeTiersPrune guards against the envelope tiers going dead
// again: on an equal-length corpus under a band, LB_PAA, banded LB_Keogh and
// LB_Improved — which only a banded equal-length query can use — must
// dismiss some of the index's candidates before the exact DP sees them.
func TestBandedEnvelopeTiersPrune(t *testing.T) {
	data, qs := knnCorpus(rand.New(rand.NewSource(2041)), 300, 64, 8)
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.AddBatch(data); err != nil {
		t.Fatal(err)
	}
	candidates, envPruned := 0, 0
	for _, q := range qs {
		res, err := db.SearchCtx(context.Background(), q, 0.35, 8)
		if err != nil {
			t.Fatal(err)
		}
		candidates += res.Stats.Candidates
		envPruned += res.Stats.LBPAAPruned + res.Stats.LBKeoghPruned + res.Stats.LBImprovedPruned
	}
	if candidates == 0 || envPruned == 0 {
		t.Fatalf("envelope tiers pruned %d of %d candidates, want some of some", envPruned, candidates)
	}
}
