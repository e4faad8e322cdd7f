package twsim_test

import (
	"math"
	"math/rand"
	"testing"

	twsim "repro"
	"repro/internal/dtw"
)

// TestRandomOperationsShadowModel interleaves Add, Remove, Search and
// NearestK against a brute-force shadow model for several hundred steps.
// This is the strongest end-to-end invariant check: after any history of
// mutations, the index answers must equal a linear scan with the exact DTW.
func TestRandomOperationsShadowModel(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(2026))
	type entry struct {
		id   twsim.ID
		vals []float64
	}
	var live []entry

	newSeq := func() []float64 {
		n := 3 + rng.Intn(20)
		s := make([]float64, n)
		s[0] = rng.Float64() * 10
		for i := 1; i < n; i++ {
			s[i] = s[i-1] + rng.Float64()*0.6 - 0.3
		}
		return s
	}

	bruteSearch := func(q []float64, eps float64) map[twsim.ID]float64 {
		out := map[twsim.ID]float64{}
		for _, e := range live {
			if d := dtw.Distance(e.vals, q, twsim.BaseLInf); d <= eps {
				out[e.id] = d
			}
		}
		return out
	}

	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(live) < 3: // add
			s := newSeq()
			id, err := db.Add(s)
			if err != nil {
				t.Fatalf("step %d: Add: %v", step, err)
			}
			live = append(live, entry{id: id, vals: s})

		case op < 7: // remove a random live sequence
			i := rng.Intn(len(live))
			ok, err := db.Remove(live[i].id)
			if err != nil || !ok {
				t.Fatalf("step %d: Remove(%d) = %v, %v", step, live[i].id, ok, err)
			}
			live = append(live[:i], live[i+1:]...)

		case op < 9: // range search vs shadow
			q := newSeq()
			if rng.Intn(2) == 0 && len(live) > 0 {
				// Perturb an existing sequence so matches actually occur.
				base := live[rng.Intn(len(live))].vals
				q = append([]float64(nil), base...)
				for i := range q {
					q[i] += (rng.Float64() - 0.5) * 0.1
				}
			}
			eps := rng.Float64() * 0.8
			res, err := db.Search(q, eps)
			if err != nil {
				t.Fatalf("step %d: Search: %v", step, err)
			}
			want := bruteSearch(q, eps)
			if len(res.Matches) != len(want) {
				t.Fatalf("step %d: %d matches, shadow has %d", step, len(res.Matches), len(want))
			}
			for _, m := range res.Matches {
				d, ok := want[m.ID]
				if !ok {
					t.Fatalf("step %d: unexpected match %d", step, m.ID)
				}
				if math.Abs(d-m.Dist) > 1e-12 {
					t.Fatalf("step %d: id %d dist %g, shadow %g", step, m.ID, m.Dist, d)
				}
			}

		default: // k-NN vs shadow
			if len(live) == 0 {
				continue
			}
			q := live[rng.Intn(len(live))].vals
			k := 1 + rng.Intn(4)
			got, err := db.NearestK(q, k)
			if err != nil {
				t.Fatalf("step %d: NearestK: %v", step, err)
			}
			dists := make([]float64, 0, len(live))
			for _, e := range live {
				dists = append(dists, dtw.Distance(e.vals, q, twsim.BaseLInf))
			}
			// Partial selection of k smallest.
			for i := 0; i < len(dists); i++ {
				for j := i + 1; j < len(dists); j++ {
					if dists[j] < dists[i] {
						dists[i], dists[j] = dists[j], dists[i]
					}
				}
			}
			wantK := k
			if wantK > len(live) {
				wantK = len(live)
			}
			if len(got) != wantK {
				t.Fatalf("step %d: NearestK returned %d, want %d", step, len(got), wantK)
			}
			for i := range got {
				if math.Abs(got[i].Dist-dists[i]) > 1e-12 {
					t.Fatalf("step %d: knn pos %d dist %g, shadow %g", step, i, got[i].Dist, dists[i])
				}
			}
		}
		if step%100 == 99 {
			if err := db.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if db.Len() != len(live) {
				t.Fatalf("step %d: Len %d, shadow %d", step, db.Len(), len(live))
			}
		}
	}
}
