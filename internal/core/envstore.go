package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/fsx"
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
// envelopes already held. The chunk is also the unit of persistence. An
// on-disk store keeps its sidecar file open and Save rewrites, in place,
// only the chunks touched since the last Save, each under its own
// checksum. It is derived data — the heap remains the single source of
// truth — so any doubt about the sidecar (missing, old version, a chunk
// failing its checksum) is resolved by re-deriving what is missing from the
// heap, exactly like the feature index. Concurrency follows *seqdb.DB
// semantics: safe for concurrent readers, writers externally serialized.
type EnvStore struct {
	chunks []*envChunkData // chunks[id/envChunk][id%envChunk]; Len == 0 marks an absent record
	dirty  []bool          // per chunk: changed since the last Save
	n      int             // live entries
	file   *os.File        // the sidecar; nil for an in-memory store
	slot   []byte          // Save's encode buffer, one chunk slot
}

// envChunk is the number of envelopes per chunk.
const envChunk = 1024

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
		// A new chunk is dirty from birth: every slot below the file's end
		// is then one Save has written, never a hole.
		es.chunks = append(es.chunks, new(envChunkData))
		es.dirty = append(es.dirty, true)
	}
	e := &es.chunks[c][int(id)%envChunk]
	if e.Len == 0 {
		es.n++
	}
	*e = PackEnvelope(env)
	es.dirty[c] = true
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
	c := int(id) / envChunk
	if e := &es.chunks[c][int(id)%envChunk]; e.Len != 0 {
		*e = PackedEnvelope{}
		es.n--
		es.dirty[c] = true
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
	return int64(es.span()) * envRecordSize
}

// span returns the size of the ID space the allocated chunks cover.
func (es *EnvStore) span() int {
	if es == nil {
		return 0
	}
	return len(es.chunks) * envChunk
}

// Sidecar file format, version 3 (little endian):
//
//	header: magic "TWPE" | version u32 | segments u32 | envelopes per chunk u32
//	then one fixed-size slot per chunk, chunk i at envHeaderSize + i*envSlotSize:
//	  envChunk × ( len u32 | segments × min f32 | segments × max f32 )   len 0 = absent
//	  crc32(IEEE) of the records above, u32
//
// A record is the PackedEnvelope bit for bit, 132 bytes, the same as in
// memory. The header never changes after creation and a record's position
// is its ID, so a Save touches only the slots of dirty chunks. A slot torn
// by a crash fails its own checksum and costs that one chunk, not the file.
// Version 2 held the same slots with float64 bounds (264-byte records);
// version 1 was a single checksummed run of (id, envelope) records
// rewritten whole on every save. Either is refused on open and the store
// re-derived from the heap.
const (
	envMagic      = "TWPE"
	envVersion    = 3
	envHeaderSize = 16
	envRecordSize = 4 + 8*seq.PAASegments
	envSlotSize   = envChunk*envRecordSize + 4
)

// CreateEnvStore creates (or replaces) the sidecar at path with an empty
// version-3 file and returns the empty store bound to it.
func CreateEnvStore(path string) (*EnvStore, error) {
	header := make([]byte, 0, envHeaderSize)
	header = append(header, envMagic...)
	header = binary.LittleEndian.AppendUint32(header, envVersion)
	header = binary.LittleEndian.AppendUint32(header, seq.PAASegments)
	header = binary.LittleEndian.AppendUint32(header, envChunk)
	if err := fsx.WriteFileSync(path, header, 0o644); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	return &EnvStore{file: f}, nil
}

// OpenEnvStore opens the sidecar at path and loads every chunk whose
// checksum holds. A chunk that fails it (or a final slot cut short) is
// left empty and dirty, with one line in notes: the caller re-derives the
// envelopes of its live IDs from the heap and the next Save rewrites the
// slot. A file that is missing, of another version or built with other
// parameters is an error; the caller starts over with CreateEnvStore.
func OpenEnvStore(path string) (es *EnvStore, notes []string, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	var header [envHeaderSize]byte
	if _, err := io.ReadFull(f, header[:]); err != nil {
		return nil, nil, fmt.Errorf("envstore: %s: reading header: %w", path, err)
	}
	if string(header[:4]) != envMagic {
		return nil, nil, fmt.Errorf("envstore: %s: bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(header[4:]); v != envVersion {
		return nil, nil, fmt.Errorf("envstore: %s: version %d, this build reads %d", path, v, envVersion)
	}
	if segs, per := binary.LittleEndian.Uint32(header[8:]), binary.LittleEndian.Uint32(header[12:]); segs != seq.PAASegments || per != envChunk {
		return nil, nil, fmt.Errorf("envstore: %s: %d segments in chunks of %d, built with %d and %d",
			path, segs, per, seq.PAASegments, envChunk)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	es = &EnvStore{file: f, slot: make([]byte, envSlotSize)}
	body := fi.Size() - envHeaderSize
	for c := 0; int64(c)*envSlotSize < body; c++ {
		chunk := new(envChunkData)
		es.chunks = append(es.chunks, chunk)
		es.dirty = append(es.dirty, false)
		_, rerr := f.ReadAt(es.slot, envHeaderSize+int64(c)*envSlotSize)
		if rerr == nil {
			rerr = decodeEnvSlot(es.slot, chunk)
		}
		if rerr != nil { // chunk is still all-absent: the checksum is verified before any record is decoded
			es.dirty[c] = true
			notes = append(notes, fmt.Sprintf("envelope-sidecar chunk %d (ids %d..%d) unreadable, re-derived from the heap: %v",
				c, c*envChunk, (c+1)*envChunk-1, rerr))
			continue
		}
		for i := range chunk {
			if chunk[i].Len != 0 {
				es.n++
			}
		}
	}
	return es, notes, nil
}

// Save writes the chunks changed since the last Save to their slots and
// fsyncs the file once; with nothing changed it does nothing. A crash
// mid-Save leaves each slot old, new or failing its checksum — all three
// are states OpenEnvStore and the reconcile pass behind it recover from.
func (es *EnvStore) Save() error {
	if es == nil || es.file == nil {
		return nil
	}
	n, err := es.writeDirty(es.file)
	if err != nil || n == 0 {
		return err
	}
	return es.file.Sync()
}

// writeDirty encodes every dirty chunk into its slot of w, clearing the
// mark, and returns the bytes written.
func (es *EnvStore) writeDirty(w io.WriterAt) (written int, err error) {
	if es.slot == nil {
		es.slot = make([]byte, envSlotSize)
	}
	for c, chunk := range es.chunks {
		if !es.dirty[c] {
			continue
		}
		encodeEnvSlot(es.slot, chunk)
		if _, err := w.WriteAt(es.slot, envHeaderSize+int64(c)*envSlotSize); err != nil {
			return written, err
		}
		written += len(es.slot)
		es.dirty[c] = false
	}
	return written, nil
}

// Close saves the store and closes the sidecar file.
func (es *EnvStore) Close() error {
	if es == nil || es.file == nil {
		return nil
	}
	err := es.Save()
	if cerr := es.file.Close(); err == nil {
		err = cerr
	}
	es.file = nil
	return err
}

func encodeEnvSlot(slot []byte, chunk *envChunkData) {
	for i := range chunk {
		e, rec := &chunk[i], slot[i*envRecordSize:]
		binary.LittleEndian.PutUint32(rec, uint32(e.Len))
		for k := 0; k < seq.PAASegments; k++ {
			binary.LittleEndian.PutUint32(rec[4+4*k:], math.Float32bits(e.Min[k]))
			binary.LittleEndian.PutUint32(rec[4+4*(seq.PAASegments+k):], math.Float32bits(e.Max[k]))
		}
	}
	body := slot[:envSlotSize-4]
	binary.LittleEndian.PutUint32(slot[envSlotSize-4:], crc32.ChecksumIEEE(body))
}

func decodeEnvSlot(slot []byte, chunk *envChunkData) error {
	body := slot[:envSlotSize-4]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(slot[envSlotSize-4:]); got != want {
		return fmt.Errorf("checksum mismatch (got %08x want %08x)", got, want)
	}
	for i := range chunk {
		e, rec := &chunk[i], slot[i*envRecordSize:]
		e.Len = int32(binary.LittleEndian.Uint32(rec))
		for k := 0; k < seq.PAASegments; k++ {
			e.Min[k] = math.Float32frombits(binary.LittleEndian.Uint32(rec[4+4*k:]))
			e.Max[k] = math.Float32frombits(binary.LittleEndian.Uint32(rec[4+4*(seq.PAASegments+k):]))
		}
	}
	return nil
}
