package server

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"sort"
	"testing"

	twsim "repro"
	"repro/internal/dtw"
)

// defaultBand in a surface case means "do not name a band": the door is
// entered through its default-band wrapper (Search / NearestK on the
// concrete types, an omitted "band" field on the wire), which must
// answer exactly as the explicit door does under Options.Band.
const defaultBand = -1

// door is one way into the query engine.
type door struct {
	name   string
	search func(q []float64, eps float64, band int) ([]twsim.Match, error)
	knn    func(q []float64, k, band int) ([]twsim.Match, error)
}

func resultMatches(r *twsim.Result, err error) ([]twsim.Match, error) {
	if err != nil {
		return nil, err
	}
	return r.Matches, nil
}

func wireMatches(r *SearchResponse, err error) ([]twsim.Match, error) {
	if err != nil {
		return nil, err
	}
	out := make([]twsim.Match, len(r.Matches))
	for i, m := range r.Matches {
		out[i] = twsim.Match{ID: twsim.ID(m.ID), Dist: m.Dist}
	}
	return out, nil
}

// backendDoor enters through the two Backend query methods; a default-band
// case resolves the band the way the server does, from DefaultBand().
func backendDoor(name string, b twsim.Backend) door {
	resolve := func(band int) int {
		if band == defaultBand {
			return b.DefaultBand()
		}
		return band
	}
	ctx := context.Background()
	return door{
		name: name,
		search: func(q []float64, eps float64, band int) ([]twsim.Match, error) {
			return resultMatches(b.SearchCtx(ctx, q, eps, resolve(band)))
		},
		knn: func(q []float64, k, band int) ([]twsim.Match, error) {
			return resultMatches(b.NearestKCtx(ctx, q, k, resolve(band)))
		},
	}
}

// paperAPI is the context-free wrapper set the two concrete types keep.
type paperAPI interface {
	twsim.Backend
	Search(query []float64, epsilon float64) (*twsim.Result, error)
	NearestK(query []float64, k int) ([]twsim.Match, error)
}

// concreteDoor is backendDoor for *DB / *ShardedDB, whose default-band cases
// go through the paper-API wrappers instead of DefaultBand().
func concreteDoor(name string, b paperAPI) door {
	d := backendDoor(name, b)
	explicit := d
	d.search = func(q []float64, eps float64, band int) ([]twsim.Match, error) {
		if band == defaultBand {
			return resultMatches(b.Search(q, eps))
		}
		return explicit.search(q, eps, band)
	}
	d.knn = func(q []float64, k, band int) ([]twsim.Match, error) {
		if band == defaultBand {
			return b.NearestK(q, k)
		}
		return explicit.knn(q, k, band)
	}
	return d
}

// clientDoor goes over HTTP; a default-band case uses Client.Search /
// Client.NearestK, which omit the band field.
func clientDoor(c *Client) door {
	ctx := context.Background()
	return door{
		name: "client",
		search: func(q []float64, eps float64, band int) ([]twsim.Match, error) {
			if band == defaultBand {
				return wireMatches(c.Search(q, eps))
			}
			return wireMatches(c.SearchCtx(ctx, q, eps, band))
		},
		knn: func(q []float64, k, band int) ([]twsim.Match, error) {
			if band == defaultBand {
				ms, err := c.NearestK(q, k)
				return wireMatches(&SearchResponse{Matches: ms}, err)
			}
			return wireMatches(c.NearestKCtx(ctx, q, k, band))
		},
	}
}

// bruteMatches is the reference no door can influence: a linear scan under
// the exact distance the case names — the reference dtw.Distance for band 0,
// dtw.BandDistance otherwise — in report order (distance, then ID). The i-th
// sequence has ID i on every door.
func bruteMatches(data [][]float64, q []float64, eps float64, band int) []twsim.Match {
	out := []twsim.Match{}
	for i, s := range data {
		d := dtw.Distance(s, q, twsim.BaseLInf)
		if band > 0 {
			d = dtw.BandDistance(s, q, twsim.BaseLInf, band)
		}
		if d <= eps {
			out = append(out, twsim.Match{ID: twsim.ID(i), Dist: d})
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

func sameMatches(a, b []twsim.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQueryDoorsAgree runs one table of (query, ε | k, band) cases through
// every way into the engine — *DB, *ShardedDB, the write-serializing wrapper
// server.NewBackend puts around a *DB, and server.Client over HTTP — and
// requires identical matches (same IDs, same float64 distances, same order)
// from all of them — and from a brute-force scan under the band the case
// names: Options.Band for a default-band case, the unconstrained distance for
// an explicit band 0 (which overrides the default, it does not fall back to
// it). Invalid cases must fail on every door, and
// the in-process doors must fail with the same error text.
func TestQueryDoorsAgree(t *testing.T) {
	const optBand = 2
	opts := twsim.Options{Band: optBand}
	data := bandWalks(11, 60)

	db, err := twsim.OpenMem(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sharded, err := twsim.OpenMemSharded(twsim.ShardedOptions{Options: opts, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	served, err := twsim.OpenMem(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	// All three assign the i-th sequence ID i (the sharded round-robin
	// interleaves back to insertion order), so matches compare directly.
	for _, b := range []twsim.Backend{db, sharded, served} {
		if _, err := b.AddBatch(data); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewBackend(served)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if srv.backend != twsim.Backend(served) || srv.primary != served {
		t.Fatalf("NewBackend serves %T (primary %p), want the very *twsim.DB it was given", srv.backend, srv.primary)
	}

	doors := []door{
		concreteDoor("db", db),
		concreteDoor("sharded", sharded),
		backendDoor("server-wrapper", srv.backend),
		clientDoor(NewClient(ts.URL, ts.Client())),
	}

	q := data[5]
	// The band-0 cases prove "explicit 0 overrides Options.Band" only if the
	// two distances answer this query differently.
	if sameMatches(bruteMatches(data, q, 0.6, 0), bruteMatches(data, q, 0.6, optBand)) ||
		sameMatches(bruteMatches(data, q, math.Inf(1), 0)[:5], bruteMatches(data, q, math.Inf(1), optBand)[:5]) {
		t.Fatal("workload does not separate band 0 from the default band")
	}
	cases := []struct {
		kind    string // "search" or "knn"
		eps     float64
		k, band int
		wantErr bool
	}{
		{kind: "search", eps: 0.6, band: 0},
		{kind: "search", eps: 0.6, band: 3},
		{kind: "search", eps: 0.6, band: defaultBand},
		{kind: "search", eps: 0, band: 0},
		{kind: "search", eps: -1, band: 0, wantErr: true},
		{kind: "search", eps: 0.6, band: -2, wantErr: true},
		{kind: "knn", k: 5, band: 0},
		{kind: "knn", k: 5, band: 3},
		{kind: "knn", k: 5, band: defaultBand},
		{kind: "knn", k: 0, band: 0},
		{kind: "knn", k: len(data) + 7, band: 3},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/eps=%g/k=%d/band=%d", c.kind, c.eps, c.k, c.band), func(t *testing.T) {
			doors := doors
			if c.band < defaultBand {
				// The typed client cannot express a negative band (it means
				// "server default"); TestNegativeBandRejected400 covers the wire.
				doors = doors[:3]
			}
			run := func(d door, band int) ([]twsim.Match, error) {
				if c.kind == "knn" {
					return d.knn(q, c.k, band)
				}
				return d.search(q, c.eps, band)
			}
			var ref []twsim.Match
			var refErr error
			for i, d := range doors {
				got, err := run(d, c.band)
				if (err != nil) != c.wantErr {
					t.Fatalf("%s: err = %v, want error %v", d.name, err, c.wantErr)
				}
				if i == 0 {
					ref, refErr = got, err
					continue
				}
				if c.wantErr {
					if d.name != "client" && err.Error() != refErr.Error() {
						t.Errorf("%s fails with %q, %s with %q", d.name, err, doors[0].name, refErr)
					}
					continue
				}
				if !sameMatches(got, ref) {
					t.Errorf("%s: %+v, %s %+v", d.name, got, doors[0].name, ref)
				}
			}
			if c.wantErr {
				return
			}
			band, eps := c.band, c.eps
			if band == defaultBand {
				band = optBand
			}
			if c.kind == "knn" {
				eps = math.Inf(1)
			}
			want := bruteMatches(data, q, eps, band)
			if c.kind == "knn" && len(want) > c.k {
				want = want[:c.k]
			}
			if !sameMatches(ref, want) {
				t.Errorf("band %d: %s %+v, brute force %+v", band, doors[0].name, ref, want)
			}
		})
	}
}
