package core

import "testing"

// k and band reach the key straight off the wire; values that differ only
// above bit 31 are different queries and must not share a cache entry.
func TestResultCacheKeyFullWidth(t *testing.T) {
	q := []float64{1, 2, 3}
	key := func(band, k int) string { return ResultCacheKey('k', band, 0, k, q) }
	if key(1, 1) == key(1, 1<<32+1) {
		t.Error("k=1 and k=2^32+1 share a result-cache key")
	}
	if key(1, 1) == key(1<<32+1, 1) {
		t.Error("band=1 and band=2^32+1 share a result-cache key")
	}
}
