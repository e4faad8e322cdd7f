package core

import (
	"math"

	"repro/internal/seq"
)

// EnvStore holds the PAA-reduced upper/lower envelope of every live
// sequence, indexed by sequence ID, alongside the 4-d Kim feature the
// index stores. The filter phase uses it for the LB_PAA cascade tier: a
// candidate streamed from the index can be pruned against its stored
// segment profile before its sequence is ever fetched from the heap.
// Each envelope is held packed (PackedEnvelope: float32 bounds rounded
// outward), at half the size of the float64 seq.PAAEnvelope it is
// extracted as.
//
// IDs are dense, so the store is a list of fixed envChunk-envelope chunks
// indexed by ID: growing it allocates one chunk and never copies the
// envelopes already held. It is derived data with no file of its own: Open
// fills it from the heap in the same scan that builds the feature index
// (Derive). Concurrency follows *seqdb.DB semantics: safe for concurrent
// readers, writers externally serialized.
type EnvStore struct {
	chunks []*envChunkData // chunks[id/envChunk][id%envChunk]; Len == 0 marks an absent record
	n      int             // live entries
}

const (
	envChunk      = 1024                  // envelopes per chunk
	envRecordSize = 4 + 8*seq.PAASegments // bytes per PackedEnvelope
)

type envChunkData [envChunk]PackedEnvelope

// PackedEnvelope is a record's PAA envelope as EnvStore holds it: the
// length and each segment's Min and Max as float32, 132 bytes against
// seq.PAAEnvelope's 264. PackEnvelope rounds outward — Min toward −∞, Max
// toward +∞ — so the stored [Min_k, Max_k] contains every value of segment
// k. A bound that only needs the interval to contain the segment reads the
// stored value; one that needs an element equal to the extreme reads it
// one float32 ulp inward (minIn, maxIn), which lies on the far side of the
// true extreme (see lbPAABanded).
type PackedEnvelope struct {
	Len      int32
	Min, Max [seq.PAASegments]float32
}

// PackEnvelope rounds e outward into the stored form. A zero Min is stored
// as +0 and a zero Max as −0, so that minIn and maxIn are one step of the
// bit pattern away from every stored value.
func PackEnvelope(e seq.PAAEnvelope) PackedEnvelope {
	p := PackedEnvelope{Len: int32(e.Len)}
	for k := range p.Min {
		p.Min[k], p.Max[k] = roundDown32(e.Min[k]), roundUp32(e.Max[k])
	}
	return p
}

// roundDown32 is the largest float32 ≤ x, +0 for a zero.
func roundDown32(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	if f == 0 {
		return 0
	}
	return f
}

// roundUp32 is the smallest float32 ≥ x, −0 for a zero.
func roundUp32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	if f == 0 {
		return negZero32
	}
	return f
}

var negZero32 = math.Float32frombits(1 << 31)

// minIn is Min_k one float32 ulp up: above the segment's true minimum,
// since the stored value is the largest float32 at or below it. The bit
// pattern steps by +1 for a non-negative value and −1 for a negative one;
// the stored +0 for zero keeps that step away from the −0 ↔ NaN wrap, and a
// Min rounded down to −Inf steps to −MaxFloat32.
func (p *PackedEnvelope) minIn(k int) float64 {
	b := math.Float32bits(p.Min[k])
	return float64(math.Float32frombits(b + 1 - b>>31<<1))
}

// maxIn is Max_k one float32 ulp down: below the segment's true maximum,
// by the mirror argument (the stored −0 for zero, +Inf steps to MaxFloat32).
func (p *PackedEnvelope) maxIn(k int) float64 {
	b := math.Float32bits(p.Max[k])
	return float64(math.Float32frombits(b - 1 + b>>31<<1))
}

// NewEnvStore returns an empty in-memory store.
func NewEnvStore() *EnvStore { return &EnvStore{} }

// Put records the envelope for id, packed, replacing any existing entry. All
// methods tolerate a nil receiver as an always-empty store, so callers
// composing the engine by hand (tests, tools) need not wire envelopes in.
func (es *EnvStore) Put(id seq.ID, env seq.PAAEnvelope) {
	if es == nil || env.Len == 0 {
		return
	}
	c := int(id) / envChunk
	for c >= len(es.chunks) {
		es.chunks = append(es.chunks, new(envChunkData))
	}
	e := &es.chunks[c][int(id)%envChunk]
	if e.Len == 0 {
		es.n++
	}
	*e = PackEnvelope(env)
}

// Get returns the packed envelope stored for id, nil when there is none. It
// points into the store's chunk rather than copying: the envelope stays put
// until Put or Remove rewrites that slot, and callers read it under the read
// half of the owning database's lock (twsim.DB.mu), which excludes both.
func (es *EnvStore) Get(id seq.ID) *PackedEnvelope {
	if es == nil || int(id)/envChunk >= len(es.chunks) {
		return nil
	}
	if e := &es.chunks[int(id)/envChunk][int(id)%envChunk]; e.Len != 0 {
		return e
	}
	return nil
}

// Remove drops the envelope stored for id, if any.
func (es *EnvStore) Remove(id seq.ID) {
	if es == nil || int(id)/envChunk >= len(es.chunks) {
		return
	}
	if e := &es.chunks[int(id)/envChunk][int(id)%envChunk]; e.Len != 0 {
		*e = PackedEnvelope{}
		es.n--
	}
}

// Len returns the number of live entries.
func (es *EnvStore) Len() int {
	if es == nil {
		return 0
	}
	return es.n
}

// Bytes returns the memory the allocated chunks hold: one packed record per
// ID they cover, live or not.
func (es *EnvStore) Bytes() int64 {
	if es == nil {
		return 0
	}
	return int64(len(es.chunks)) * envChunk * envRecordSize
}
