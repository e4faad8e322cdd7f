package seqdb

import (
	"math/rand"
	"testing"

	"repro/internal/seq"
	"repro/internal/synth"
)

var fetchSink float64

// BenchmarkHeapFetch prices one candidate fetch on a heap of the benchmark
// workloads' shape — 100 000 random walks of 64..192 elements in a
// file-backed heap at the 1 KB page size, IDs drawn at random so neither the
// 64-page pool nor read-ahead helps: Get (the caller owns the result) beside
// Fetch into one reused Scratch (what a query's cascade does). `make kernels`
// runs it; to compare two commits build the test binary on both and
// alternate them.
func BenchmarkHeapFetch(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	db, err := Create(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const count = 100_000
	for i := 0; i < count; i++ {
		if _, err := db.Append(synth.RandomWalk(rng, 64+rng.Intn(129))); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	ids := make([]seq.ID, 1<<16)
	for i := range ids {
		ids[i] = seq.ID(rng.Intn(count))
	}
	b.Run("Get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := db.Get(ids[i%len(ids)])
			if err != nil {
				b.Fatal(err)
			}
			fetchSink += s[0]
		}
	})
	b.Run("Scratch", func(b *testing.B) {
		sc := AcquireScratch()
		defer sc.Release()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := db.Fetch(ids[i%len(ids)], sc)
			if err != nil {
				b.Fatal(err)
			}
			fetchSink += s[0]
		}
	})
}
