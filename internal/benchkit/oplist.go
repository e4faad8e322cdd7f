package benchkit

import (
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/seq"
	"repro/internal/synth"
)

// Kind is the kind of one operation in a workload's op list.
type Kind uint8

// The op kinds, one per HTTP endpoint the workloads drive.
const (
	KindSearch   Kind = iota // POST /search
	KindKNN                  // POST /knn
	KindAdd                  // POST /sequences
	KindAddBatch             // POST /sequences/batch
	KindDelete               // DELETE /sequences/{id}
)

func (k Kind) String() string {
	return [...]string{"search", "knn", "add", "add_batch", "delete"}[k]
}

// Path is the kind's endpoint (a delete appends the id).
func (k Kind) Path() string {
	return [...]string{"/search", "/knn", "/sequences", "/sequences/batch", "/sequences/"}[k]
}

// IsQuery reports whether the kind is answered by the search path.
func (k Kind) IsQuery() bool { return k == KindSearch || k == KindKNN }

// Op is one pre-generated request. Body is JSON-encoded before the clock
// starts; a delete has no body and resolves its path at run time from the
// id the server assigned to the add it targets.
type Op struct {
	Kind   Kind
	Body   []byte
	Query  int            // index into List.Queries (-1 for writes)
	Seqs   []seq.Sequence // what an add or add-batch stores
	Target int            // delete: index in List.Ops of the add it removes
}

// List is a workload's seeded op list plus the query parameters the
// checker needs to recompute every answer.
type List struct {
	Kind    Kind // the query kind: KindSearch or KindKNN
	Ops     []Op
	Queries []seq.Sequence // the distinct queries ops refer to
	Bodies  [][]byte       // Queries' pre-encoded request bodies
	Epsilon float64        // /search tolerance
	K       int            // /knn result count
	Band    int            // Sakoe–Chiba half-width (0 = unbanded)
}

// Mix describes how a workload's traffic is generated.
type Mix struct {
	Query   Kind    // KindSearch or KindKNN
	Epsilon float64 // tolerance for KindSearch
	K       int     // result count for KindKNN
	Band    int     // per-request band (always sent, so 0 means unbanded)

	// Distinct is the number of distinct queries. 0 makes every query op
	// its own query; otherwise queries are drawn Zipf(ZipfS) from Distinct.
	Distinct int
	ZipfS    float64

	// Per block of 20 ops: how many are single adds, BatchSize-sequence batch adds
	// and deletes; the rest are queries. Positions inside a block are
	// shuffled by the seed, the shares are exact.
	AddsPer20, BatchesPer20, DeletesPer20 int
	// AddEvery, when > 0, instead turns every AddEvery-th op into a single
	// add (the open loop's invalidating trickle).
	AddEvery int
}

// knnCostRadius is the feature-space radius whose population stands in for
// a k-NN query's cost (it has no tolerance of its own): a local density.
const knnCostRadius = 0.1

// zipfDesignSeed fixes the sequence of Zipf ranks an op list asks for.
const zipfDesignSeed = 20010402

// BatchSize is the number of sequences in one /sequences/batch write op.
const BatchSize = 32

// GenOps builds the op list: n ops over corpus, fully determined by seed.
// New sequences written by add ops are fresh random walks with the
// corpus's length range, so they fall where queries can find them.
func GenOps(seed int64, corpus []seq.Sequence, mix Mix, n int) *List {
	rng := rand.New(rand.NewSource(seed))
	l := &List{Kind: mix.Query, Epsilon: mix.Epsilon, K: mix.K, Band: mix.Band}
	minLen, maxLen := lenRange(corpus)

	kinds := make([]Kind, n)
	for i := range kinds {
		kinds[i] = mix.Query
	}
	switch {
	case mix.AddEvery > 0:
		for i := mix.AddEvery / 2; i < n; i += mix.AddEvery {
			kinds[i] = KindAdd
		}
	case mix.AddsPer20+mix.BatchesPer20+mix.DeletesPer20 > 0:
		for lo := 0; lo < n; lo += 20 {
			hi := lo + 20
			if hi > n {
				hi = n
			}
			block := kinds[lo:hi]
			k := 0
			for _, w := range []struct {
				kind  Kind
				count int
			}{{KindAdd, mix.AddsPer20}, {KindAddBatch, mix.BatchesPer20}, {KindDelete, mix.DeletesPer20}} {
				for c := 0; c < w.count && k < len(block); c++ {
					block[k] = w.kind
					k++
				}
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
	}

	// Deletes remove single adds of earlier blocks, oldest first, so the
	// target's acknowledgement has long arrived when the delete is sent. A
	// delete with nothing of an earlier block left to remove becomes a
	// query, so the op count stays n.
	nq, unclaimed, eligible := 0, 0, 0
	for i, k := range kinds {
		if i%20 == 0 {
			eligible = unclaimed
		}
		switch {
		case k == KindAdd:
			unclaimed++
		case k == KindDelete && eligible == 0:
			kinds[i] = mix.Query
		case k == KindDelete:
			eligible--
			unclaimed--
		}
		if kinds[i].IsQuery() {
			nq++
		}
	}
	// Which rank is asked when is a fixed design, the same for every seed:
	// the seed chooses the queries behind the ranks, not the popularity
	// sequence, so every seed sees the same pattern of repeats and misses.
	var zipf *Zipf
	zrng := rand.New(rand.NewSource(zipfDesignSeed))
	if mix.Distinct > 0 {
		nq = mix.Distinct
		zipf = NewZipf(mix.Distinct, mix.ZipfS)
	}
	radius := mix.Epsilon
	if mix.Query == KindKNN {
		radius = knnCostRadius
	}
	l.Queries = drawQueries(rng, corpus, nq, radius)
	l.Bodies = make([][]byte, len(l.Queries))
	for i, q := range l.Queries {
		l.Bodies[i] = queryBody(mix, q)
	}

	var pending []int // single adds not yet targeted by a delete
	l.Ops = make([]Op, n)
	next := 0
	for i, k := range kinds {
		op := Op{Kind: k, Query: -1, Target: -1}
		switch k {
		case KindAdd:
			s := synth.RandomWalk(rng, minLen+rng.Intn(maxLen-minLen+1))
			op.Seqs = []seq.Sequence{s}
			op.Body = append(appendFloats([]byte(`{"values":`), s), '}')
			pending = append(pending, i)
		case KindAddBatch:
			op.Seqs = make([]seq.Sequence, BatchSize)
			for j := range op.Seqs {
				op.Seqs[j] = synth.RandomWalk(rng, minLen+rng.Intn(maxLen-minLen+1))
			}
			op.Body = BatchBody(op.Seqs)
		case KindDelete:
			op.Target = pending[0]
			pending = pending[1:]
		}
		if op.Kind.IsQuery() {
			if zipf != nil {
				op.Query = zipf.Draw(zrng)
			} else {
				op.Query = next
				next++
			}
			op.Body = l.Bodies[op.Query]
		}
		l.Ops[i] = op
	}
	return l
}

// drawQueries draws n paper-style queries (synth.Query: a data sequence
// perturbed element-wise by ±std/2) so that every seed's list holds the
// same mix of cheap and expensive queries. A query's cost follows the
// number of DP cells its candidates span — its own length times the summed
// lengths of the sequences whose features lie within radius of its own,
// which is the candidate set the index returns — and that number swings by
// an order of magnitude between queries, so a plain sample of a hundred
// makes a pass's total work swing with the seed. Instead a pool of 16n
// queries is ordered by that estimate and one query is taken from each of
// n equal slices; which member of a slice is the seed's choice. The slices
// are then laid out in one fixed low-discrepancy order, so the position of
// cheap and expensive queries in a pass (and the Zipf rank of each slice)
// is the same for every seed too.
func drawQueries(rng *rand.Rand, corpus []seq.Sequence, n int, radius float64) []seq.Sequence {
	if n == 0 {
		return nil
	}
	type row struct {
		f seq.Feature
		n int
	}
	rows := make([]row, len(corpus))
	for i, s := range corpus {
		rows[i] = row{seq.MustFeature(s), len(s)}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].f.First < rows[b].f.First })

	const perSlice = 16 // pool size per query: the pool's own mean cost must not swing with the seed either
	pool := synth.Queries(rng, corpus, perSlice*n)
	cost := make([]int, len(pool))
	order := make([]int, len(pool))
	for i, q := range pool {
		order[i] = i
		fq := seq.MustFeature(q)
		lo := sort.Search(len(rows), func(j int) bool { return rows[j].f.First >= fq.First-radius })
		for _, r := range rows[lo:] {
			if r.f.First > fq.First+radius {
				break
			}
			if r.f.DistLInf(fq) <= radius {
				cost[i] += r.n
			}
		}
		cost[i] *= len(q)
	}
	sort.Slice(order, func(a, b int) bool {
		if cost[order[a]] != cost[order[b]] {
			return cost[order[a]] < cost[order[b]]
		}
		return order[a] < order[b]
	})
	// stride ≈ 0.618 n, coprime with n: slice i lands at position
	// i·stride mod n, which spreads neighbouring slices far apart.
	stride := int(0.618*float64(n)) + 1
	for gcd(stride, n) != 1 {
		stride++
	}
	out := make([]seq.Sequence, n)
	for i := range out {
		out[i*stride%n] = pool[order[i*perSlice+rng.Intn(perSlice)]]
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lenRange(corpus []seq.Sequence) (minLen, maxLen int) {
	minLen, maxLen = math.MaxInt, 0
	for _, s := range corpus {
		if len(s) < minLen {
			minLen = len(s)
		}
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	return minLen, maxLen
}

func queryBody(mix Mix, q seq.Sequence) []byte {
	b := appendFloats([]byte(`{"query":`), q)
	if mix.Query == KindKNN {
		b = append(b, `,"k":`...)
		b = strconv.AppendInt(b, int64(mix.K), 10)
	} else {
		b = append(b, `,"epsilon":`...)
		b = strconv.AppendFloat(b, mix.Epsilon, 'g', -1, 64)
	}
	b = append(b, `,"band":`...)
	b = strconv.AppendInt(b, int64(mix.Band), 10)
	return append(b, '}')
}

// BatchBody encodes a /sequences/batch request body.
func BatchBody(ss []seq.Sequence) []byte {
	b := []byte(`{"sequences":[`)
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloats(b, s)
	}
	return append(b, ']', '}')
}

// appendFloats appends s as a JSON array. 'g' with precision -1 is the
// shortest text that parses back to the same float64, so the server stores
// bit-identical values.
func appendFloats(b []byte, s seq.Sequence) []byte {
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// Zipf draws ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^s by inverting the
// cumulative distribution, so its frequencies can be tested exactly.
type Zipf struct {
	cdf []float64
}

// NewZipf builds the sampler for n ranks and exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Draw returns the next rank.
func (z *Zipf) Draw(rng *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, rng.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// P returns the probability of rank k.
func (z *Zipf) P(k int) float64 {
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}
