package seq

// PAASegments is the number of segments in a stored PAA envelope. 16 keeps
// the per-record footprint at 16·2 float32s + a length, 132 bytes, as
// core.EnvStore packs it — small enough to hold every record's profile in
// memory alongside the 4-d Kim feature, yet fine-grained enough for the
// segment ranges to separate diverging walks.
const PAASegments = 16

// PAAEnvelope is the piecewise-aggregate min/max profile of a sequence: the
// sequence is cut into PAASegments contiguous segments and each segment
// stores the min and max of its values, plus the original length. This is
// the float64 extraction form; core.EnvStore stores it packed to float32,
// rounded outward (core.PackEnvelope). It is the
// per-record half of the LB_PAA filter tier and k-NN walk key, so candidate
// records can be pruned before their sequences are fetched. For a banded
// query of the record's length the bound is two-sided: each segment's min
// and max against the query's range over the band-expanded segment window,
// and the query's own segment extremes against the stored segments that
// cover that window (core's lbPAABanded); otherwise it is the gap between
// each segment's range and the query's.
type PAAEnvelope struct {
	Len      int
	Min, Max [PAASegments]float64
}

// PAABounds returns the half-open element range [lo, hi) of segment k for a
// sequence of length n. Boundaries are ⌊k·n/PAASegments⌋, so every element
// belongs to exactly one segment; when n < PAASegments some segments are
// empty (lo == hi) and carry zero weight in any bound.
func PAABounds(n, k int) (lo, hi int) {
	return k * n / PAASegments, (k + 1) * n / PAASegments
}

// ExtractPAAEnvelope computes the PAA envelope of s. Empty segments (short
// sequences) store a degenerate single-value range so the record stays
// finite; their query-time weight is zero either way. Returns ErrEmpty for
// the empty sequence, whose profile is undefined.
func ExtractPAAEnvelope(s Sequence) (PAAEnvelope, error) {
	if s.Empty() {
		return PAAEnvelope{}, ErrEmpty
	}
	n := len(s)
	e := PAAEnvelope{Len: n}
	for k := 0; k < PAASegments; k++ {
		lo, hi := PAABounds(n, k)
		if lo >= hi {
			at := lo
			if at > n-1 {
				at = n - 1
			}
			e.Min[k], e.Max[k] = s[at], s[at]
			continue
		}
		mn, mx := s[lo], s[lo]
		for _, v := range s[lo+1 : hi] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		e.Min[k], e.Max[k] = mn, mx
	}
	return e, nil
}
