package core

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/seq"
	"repro/internal/seqdb"
	"repro/internal/synth"
)

// envFixture is a heap of short walks spanning three envelope chunks and
// the envelope each record derives to.
func envFixture(t *testing.T) (*seqdb.DB, []seq.PAAEnvelope) {
	t.Helper()
	store, err := seqdb.NewMem(seqdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	data := synth.RandomWalkSetVaryLen(rand.New(rand.NewSource(71)), 2*envChunk+300, 8, 20)
	want := make([]seq.PAAEnvelope, len(data))
	for i, s := range data {
		if _, err := store.Append(s); err != nil {
			t.Fatal(err)
		}
		if want[i], err = seq.ExtractPAAEnvelope(s); err != nil {
			t.Fatal(err)
		}
	}
	return store, want
}

// requireEnvs holds the store to want: want[id].Len == 0 means absent.
func requireEnvs(t *testing.T, es *EnvStore, want []seq.PAAEnvelope) {
	t.Helper()
	live := 0
	for id, w := range want {
		got := es.Get(seq.ID(id))
		if (got != nil) != (w.Len != 0) || got != nil && *got != PackEnvelope(w) {
			t.Fatalf("envelope %d: got %+v, want %+v", id, got, w)
		}
		if w.Len != 0 {
			live++
		}
	}
	if es.Len() != live {
		t.Fatalf("Len = %d, want %d", es.Len(), live)
	}
}

// TestDeriveBuildsIndexAndEnvelopes: one Derive over a heap spanning
// three envelope chunks, with every seventh record deleted, indexes each
// live record once at its feature and stores exactly its envelope, and
// nothing for a deleted one; it refuses an index that is not empty.
func TestDeriveBuildsIndexAndEnvelopes(t *testing.T) {
	store, want := envFixture(t)
	for id := 0; id < len(want); id += 7 {
		if _, err := store.Delete(seq.ID(id)); err != nil {
			t.Fatal(err)
		}
		want[id] = seq.PAAEnvelope{}
	}
	index, err := NewFlatIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	envs := NewEnvStore()
	live, err := Derive(store, index, envs)
	if err != nil {
		t.Fatal(err)
	}
	if live != store.Len() || index.Len() != live {
		t.Fatalf("derived %d, indexed %d, want the %d live records", live, index.Len(), store.Len())
	}
	requireEnvs(t, envs, want)
	entries, err := index.Entries()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		s, err := store.Get(e.ID)
		if err != nil {
			t.Fatalf("entry %d: %v", e.ID, err)
		}
		if e.Point != seq.MustFeature(s).Vector() {
			t.Fatalf("entry %d at %v, its feature is %v", e.ID, e.Point, seq.MustFeature(s).Vector())
		}
	}
	if err := index.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := Derive(store, index, NewEnvStore()); err == nil {
		t.Fatal("Derive into a filled index succeeded")
	}
}

// TestPackEnvelopeRoundsOutward: the packed record is 132 bytes in memory,
// the size Bytes counts for it; each stored Min is the largest float32 at
// or below the segment's minimum and each Max the smallest at or above its
// maximum; a zero Min is +0 and a zero Max −0; and the inward reads are
// math.Nextafter32 one step toward the other bound, landing on the far
// side of the true extreme.
func TestPackEnvelopeRoundsOutward(t *testing.T) {
	if size := unsafe.Sizeof(PackedEnvelope{}); size != envRecordSize || envRecordSize != 132 {
		t.Fatalf("PackedEnvelope is %d bytes, envRecordSize %d; want both 132", size, envRecordSize)
	}
	rng := rand.New(rand.NewSource(73))
	values := []float64{0, math.Copysign(0, -1), 1e-50, -1e-50, 1e-45, -1e-45, 0.1, -0.1, 1, -1,
		math.MaxFloat32, -math.MaxFloat32, 1e300, -1e300, math.SmallestNonzeroFloat64, 16777217}
	for i := 0; i < 2000; i++ {
		values = append(values, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(20)-10)))
	}
	inf32, ninf32 := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, x := range values {
		var e seq.PAAEnvelope
		e.Len = 1
		for k := range e.Min {
			e.Min[k], e.Max[k] = x, x
		}
		p := PackEnvelope(e)
		lo, hi := p.Min[0], p.Max[0]
		if float64(lo) > x || float64(math.Nextafter32(lo, inf32)) <= x {
			t.Fatalf("x=%g: Min stored %g, want the largest float32 ≤ x", x, lo)
		}
		if float64(hi) < x || float64(math.Nextafter32(hi, ninf32)) >= x {
			t.Fatalf("x=%g: Max stored %g, want the smallest float32 ≥ x", x, hi)
		}
		if lo == 0 && math.Float32bits(lo) != 0 || hi == 0 && math.Float32bits(hi) != 1<<31 {
			t.Fatalf("x=%g: zero bounds stored as %08x / %08x, want +0 / −0", x, math.Float32bits(lo), math.Float32bits(hi))
		}
		if in, want := p.minIn(0), float64(math.Nextafter32(lo, inf32)); math.Float64bits(in) != math.Float64bits(want) || in < x {
			t.Fatalf("x=%g: minIn %g, want %g and ≥ x", x, in, want)
		}
		if in, want := p.maxIn(0), float64(math.Nextafter32(hi, ninf32)); math.Float64bits(in) != math.Float64bits(want) || in > x {
			t.Fatalf("x=%g: maxIn %g, want %g and ≤ x", x, in, want)
		}
	}
}
