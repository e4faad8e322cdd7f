package benchkit

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/dtw"
	"repro/internal/seq"
)

// Match is one result on the wire.
type Match struct {
	ID   uint32  `json:"id"`
	Dist float64 `json:"dist"`
}

// QueryReply is the part of a /search or /knn response the benchmark
// reads: the answer and the server-side wall time of the search.
type QueryReply struct {
	Matches []Match `json:"matches"`
	Stats   struct {
		WallMicros int64 `json:"wall_us"`
	} `json:"stats"`
}

// ParseQueryReply decodes a /search or /knn response body.
func ParseQueryReply(body []byte) (*QueryReply, error) {
	var r QueryReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("benchkit: query reply: %w", err)
	}
	return &r, nil
}

// Corpus is the client's copy of what the server stores, indexed by the id
// the server assigned. Deleted sequences keep their values (an answer made
// before the delete may still name them) but leave the live set.
type Corpus struct {
	seqs []seq.Sequence
	dead []bool
	live int
}

// Put records that the server stored s under id.
func (c *Corpus) Put(id uint32, s seq.Sequence) {
	for int(id) >= len(c.seqs) {
		c.seqs = append(c.seqs, nil)
		c.dead = append(c.dead, false)
	}
	if c.seqs[id] == nil {
		c.live++
	}
	c.seqs[id] = s
}

// Delete records that the server removed id.
func (c *Corpus) Delete(id uint32) {
	if c.IsLive(id) {
		c.dead[id] = true
		c.live--
	}
}

// Get returns the sequence ever stored under id (deleted or not), or nil.
func (c *Corpus) Get(id uint32) seq.Sequence {
	if int(id) >= len(c.seqs) {
		return nil
	}
	return c.seqs[id]
}

// IsLive reports whether id is stored and not deleted.
func (c *Corpus) IsLive(id uint32) bool {
	return int(id) < len(c.seqs) && c.seqs[id] != nil && !c.dead[id]
}

// Each calls fn for every live sequence in ascending id order.
func (c *Corpus) Each(fn func(id uint32, s seq.Sequence)) {
	for id, s := range c.seqs {
		if s != nil && !c.dead[id] {
			fn(uint32(id), s)
		}
	}
}

// Live is the number of stored, undeleted sequences.
func (c *Corpus) Live() int { return c.live }

// Elements is the number of float64 values in the live sequences.
func (c *Corpus) Elements() int64 {
	var n int64
	c.Each(func(_ uint32, s seq.Sequence) { n += int64(len(s)) })
	return n
}

// Checker recomputes returned distances from the client's copy of the
// stored sequences with the reference kernels (dtw.Distance /
// dtw.BandDistance), not with the cascade the server ran. The distance of
// a (query, sequence) pair is a pure function, and the same op list runs
// six times, so each pair is computed once and remembered. A Checker is
// not safe for concurrent use; run one per goroutine over disjoint queries.
type Checker struct {
	List   *List
	Corpus *Corpus
	memo   map[uint64]float64
}

func (c *Checker) distance(qi int, id uint32, s seq.Sequence) float64 {
	key := uint64(qi)<<32 | uint64(id)
	if d, ok := c.memo[key]; ok {
		return d
	}
	if c.memo == nil {
		c.memo = make(map[uint64]float64)
	}
	q := c.List.Queries[qi]
	var d float64
	if c.List.Band >= 1 {
		d = dtw.BandDistance(s, q, seq.LInf, c.List.Band)
	} else {
		d = dtw.Distance(s, q, seq.LInf)
	}
	c.memo[key] = d
	return d
}

// Check lists what is wrong with the answer to query qi: an id the client
// never stored, an id returned twice, a distance that is not bit-identical
// to the recomputation, a range match beyond epsilon, a k-NN answer that
// is not ascending or has the wrong length.
func (c *Checker) Check(kind Kind, qi int, ms []Match) []string {
	var bad []string
	seen := make(map[uint32]bool, len(ms))
	for i, m := range ms {
		if seen[m.ID] {
			bad = append(bad, fmt.Sprintf("id %d returned twice", m.ID))
		}
		seen[m.ID] = true
		s := c.Corpus.Get(m.ID)
		if s == nil {
			bad = append(bad, fmt.Sprintf("match names id %d, which the client never stored", m.ID))
			continue
		}
		want := c.distance(qi, m.ID, s)
		if math.Float64bits(want) != math.Float64bits(m.Dist) {
			bad = append(bad, fmt.Sprintf("id %d: distance %v, recomputed %v", m.ID, m.Dist, want))
		}
		if kind == KindSearch && !(m.Dist <= c.List.Epsilon) {
			bad = append(bad, fmt.Sprintf("id %d: distance %v beyond epsilon %v", m.ID, m.Dist, c.List.Epsilon))
		}
		if kind == KindKNN && i > 0 && m.Dist < ms[i-1].Dist {
			bad = append(bad, fmt.Sprintf("k-NN answer not ascending at position %d", i))
		}
	}
	if kind == KindKNN {
		want := c.List.K
		if c.Corpus.Live() < want {
			want = c.Corpus.Live()
		}
		if len(ms) != want {
			bad = append(bad, fmt.Sprintf("k-NN answer has %d matches, want %d", len(ms), want))
		}
	}
	return bad
}

// BruteForce answers the query by scanning every live sequence of the
// client's corpus with the early-abandoning exact DP and no lower bound at
// all — the trivially correct model Theorem 1 (no false dismissal) is
// checked against. Range answers come back in ascending id order, k-NN
// answers ascending by (distance, id).
func BruteForce(l *List, kind Kind, q seq.Sequence, c *Corpus) []Match {
	within := func(s seq.Sequence, cutoff float64) (float64, bool) {
		if l.Band >= 1 {
			return dtw.BandDistanceWithin(s, q, seq.LInf, l.Band, cutoff)
		}
		return dtw.DistanceWithin(s, q, seq.LInf, cutoff)
	}
	var out []Match
	if kind == KindSearch {
		c.Each(func(id uint32, s seq.Sequence) {
			if d, ok := within(s, l.Epsilon); ok {
				out = append(out, Match{ID: id, Dist: d})
			}
		})
		return out
	}
	// k-NN: abandon against the k-th best so far, tightened every few
	// admissions; ties at the cutoff stay in.
	cutoff := math.Inf(1)
	c.Each(func(id uint32, s seq.Sequence) {
		d, ok := within(s, cutoff)
		if !ok {
			return
		}
		out = append(out, Match{ID: id, Dist: d})
		if len(out) >= 4*l.K+16 {
			out = topK(out, l.K)
			cutoff = out[len(out)-1].Dist
		}
	})
	return topK(out, l.K)
}

func topK(ms []Match, k int) []Match {
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].Dist != ms[b].Dist {
			return ms[a].Dist < ms[b].Dist
		}
		return ms[a].ID < ms[b].ID
	})
	if len(ms) > k {
		ms = ms[:k]
	}
	return ms
}

// CompareToBruteForce reports how the server's answer differs from the
// scan's. A range answer must hold exactly the scan's ids; a k-NN answer
// must hold the scan's k distances (ids may differ only between sequences
// tied at the same distance).
func CompareToBruteForce(kind Kind, got, want []Match) []string {
	var bad []string
	if kind == KindSearch {
		have := make(map[uint32]bool, len(got))
		for _, m := range got {
			have[m.ID] = true
		}
		for _, m := range want {
			if !have[m.ID] {
				bad = append(bad, fmt.Sprintf("false dismissal: id %d at distance %v is missing", m.ID, m.Dist))
			}
			delete(have, m.ID)
		}
		for id := range have {
			bad = append(bad, fmt.Sprintf("id %d is returned but not within epsilon", id))
		}
		return bad
	}
	if len(got) != len(want) {
		return []string{fmt.Sprintf("k-NN answer has %d matches, the scan found %d", len(got), len(want))}
	}
	for i := range got {
		if math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			bad = append(bad, fmt.Sprintf("k-NN rank %d: distance %v, the scan found %v", i, got[i].Dist, want[i].Dist))
		}
	}
	return bad
}

// ConservationGap returns candidates − (Σ pruned + dtw_calls) for the
// counters diffed around the measured phase; the cascade's conservation
// law says it is 0.
func ConservationGap(d MetricsDelta) (float64, error) {
	gap, err := d.Counter("twsim_query_candidates_total", nil)
	if err != nil {
		return 0, err
	}
	for _, name := range []string{
		"twsim_lb_kim_pruned_total", "twsim_lb_paa_pruned_total", "twsim_lb_keogh_pruned_total",
		"twsim_lb_yi_pruned_total", "twsim_lb_improved_pruned_total", "twsim_corridor_pruned_total",
		"twsim_dtw_calls_total",
	} {
		v, err := d.Counter(name, nil)
		if err != nil {
			return 0, err
		}
		gap -= v
	}
	return gap, nil
}
