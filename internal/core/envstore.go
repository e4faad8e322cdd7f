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

type envChunkData [envChunk]seq.PAAEnvelope

// NewEnvStore returns an empty in-memory store.
func NewEnvStore() *EnvStore { return &EnvStore{} }

// Put records the envelope for id, replacing any existing entry. All
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
	*e = env
	es.dirty[c] = true
}

// Get returns the envelope stored for id.
func (es *EnvStore) Get(id seq.ID) (seq.PAAEnvelope, bool) {
	if es == nil || int(id)/envChunk >= len(es.chunks) {
		return seq.PAAEnvelope{}, false
	}
	e := &es.chunks[int(id)/envChunk][int(id)%envChunk]
	return *e, e.Len != 0
}

// Remove drops the envelope stored for id, if any.
func (es *EnvStore) Remove(id seq.ID) {
	if es == nil || int(id)/envChunk >= len(es.chunks) {
		return
	}
	c := int(id) / envChunk
	if e := &es.chunks[c][int(id)%envChunk]; e.Len != 0 {
		*e = seq.PAAEnvelope{}
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

// span returns the size of the ID space the allocated chunks cover.
func (es *EnvStore) span() int {
	if es == nil {
		return 0
	}
	return len(es.chunks) * envChunk
}

// Sidecar file format, version 2 (little endian):
//
//	header: magic "TWPE" | version u32 | segments u32 | envelopes per chunk u32
//	then one fixed-size slot per chunk, chunk i at envHeaderSize + i*envSlotSize:
//	  envChunk × ( len u32 | segments × min f64 | segments × max f64 )   len 0 = absent
//	  crc32(IEEE) of the records above, u32
//
// The header never changes after creation and a record's position is its
// ID, so a Save touches only the slots of dirty chunks. A slot torn by a
// crash fails its own checksum and costs that one chunk, not the file.
// Version 1 was a single checksummed run of (id, envelope) records rewritten
// whole on every save; such a file is replaced on open.
const (
	envMagic      = "TWPE"
	envVersion    = 2
	envHeaderSize = 16
	envRecordSize = 4 + 16*seq.PAASegments
	envSlotSize   = envChunk*envRecordSize + 4
)

// CreateEnvStore creates (or replaces) the sidecar at path with an empty
// version-2 file and returns the empty store bound to it.
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
			binary.LittleEndian.PutUint64(rec[4+8*k:], math.Float64bits(e.Min[k]))
			binary.LittleEndian.PutUint64(rec[4+8*(seq.PAASegments+k):], math.Float64bits(e.Max[k]))
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
		e.Len = int(binary.LittleEndian.Uint32(rec))
		for k := 0; k < seq.PAASegments; k++ {
			e.Min[k] = math.Float64frombits(binary.LittleEndian.Uint64(rec[4+8*k:]))
			e.Max[k] = math.Float64frombits(binary.LittleEndian.Uint64(rec[4+8*(seq.PAASegments+k):]))
		}
	}
	return nil
}
