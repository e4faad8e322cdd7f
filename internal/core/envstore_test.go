package core

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
		got, ok := es.Get(seq.ID(id))
		if ok != (w.Len != 0) || got != w {
			t.Fatalf("envelope %d: got %+v (present %v), want %+v", id, got, ok, w)
		}
		if w.Len != 0 {
			live++
		}
	}
	if es.Len() != live {
		t.Fatalf("Len = %d, want %d", es.Len(), live)
	}
}

// countingWriterAt counts what a Save would write.
type countingWriterAt struct {
	w        io.WriterAt
	calls, n int
}

func (c *countingWriterAt) WriteAt(p []byte, off int64) (int, error) {
	c.calls++
	c.n += len(p)
	return c.w.WriteAt(p, off)
}

// TestEnvStoreSavesDirtyChunksOnly: the sidecar round-trips through
// Save/Close/Open, a Save after one Put or one Remove rewrites exactly the
// one chunk slot it touched (the header never), and a Save with nothing
// changed writes nothing.
func TestEnvStoreSavesDirtyChunksOnly(t *testing.T) {
	_, want := envFixture(t)
	path := filepath.Join(t.TempDir(), "envelopes.paa")
	es, err := CreateEnvStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for id, e := range want {
		es.Put(seq.ID(id), e)
	}
	if err := es.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != envHeaderSize+3*envSlotSize {
		t.Fatalf("sidecar is %d bytes (err %v), want the header and three slots, %d", fi.Size(), err, envHeaderSize+3*envSlotSize)
	}

	es, notes, err := OpenEnvStore(path)
	if err != nil || len(notes) != 0 {
		t.Fatalf("reopen: err %v, notes %q", err, notes)
	}
	requireEnvs(t, es, want)
	cw := &countingWriterAt{w: es.file}
	if n, err := es.writeDirty(cw); err != nil || n != 0 || cw.calls != 0 {
		t.Fatalf("a freshly loaded store wrote %d bytes in %d calls (err %v), want nothing", n, cw.calls, err)
	}

	// One replaced envelope in the middle chunk, then one removal in the last.
	fresh, _ := seq.ExtractPAAEnvelope(seq.Sequence{1, 2, 3, 4, 5})
	es.Put(envChunk+7, fresh)
	want[envChunk+7] = fresh
	if n, err := es.writeDirty(cw); err != nil || n != envSlotSize || cw.calls != 1 || cw.n != envSlotSize {
		t.Fatalf("Save after one Put wrote %d bytes in %d calls (err %v), want one slot of %d", cw.n, cw.calls, err, envSlotSize)
	}
	es.Remove(2*envChunk + 5)
	want[2*envChunk+5] = seq.PAAEnvelope{}
	if err := es.Save(); err != nil {
		t.Fatal(err)
	}
	if err := es.Close(); err != nil {
		t.Fatal(err)
	}
	es, notes, err = OpenEnvStore(path)
	if err != nil || len(notes) != 0 {
		t.Fatalf("second reopen: err %v, notes %q", err, notes)
	}
	defer es.Close()
	requireEnvs(t, es, want)
}

// TestEnvStoreTornChunk: a chunk slot that fails its checksum — or a last
// slot cut short — costs that chunk alone. OpenEnvStore says which one, the
// other chunks load, and the reconcile pass re-derives exactly the missing
// envelopes from the heap.
func TestEnvStoreTornChunk(t *testing.T) {
	store, want := envFixture(t)
	index, err := NewFlatIndex(IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer index.Close()
	path := filepath.Join(t.TempDir(), "envelopes.paa")
	es, err := CreateEnvStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := Reconcile(store, index, es); err != nil || rs.Envelopes != len(want) {
		t.Fatalf("first reconcile derived %d envelopes (err %v), want %d", rs.Envelopes, err, len(want))
	}
	if err := es.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, tc := range map[string]struct {
		damage func([]byte) []byte
		chunk  int
		lost   int
	}{
		"flipped byte in the middle slot": {func(b []byte) []byte {
			b[envHeaderSize+envSlotSize+envSlotSize/2] ^= 0x01
			return b
		}, 1, envChunk},
		"last slot cut short": {func(b []byte) []byte { return b[:len(b)-100] }, 2, 300},
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.damage(append([]byte(nil), intact...)), 0o644); err != nil {
				t.Fatal(err)
			}
			es, notes, err := OpenEnvStore(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(notes) != 1 || !strings.Contains(notes[0], "chunk "+string(rune('0'+tc.chunk))) {
				t.Fatalf("notes = %q, want one line naming chunk %d", notes, tc.chunk)
			}
			if es.Len() != len(want)-tc.lost {
				t.Fatalf("loaded %d envelopes, want all but the torn chunk's %d", es.Len(), tc.lost)
			}
			rs, err := Reconcile(store, index, es)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Envelopes != tc.lost || rs.Repaired() {
				t.Fatalf("reconcile derived %d envelopes (repair %+v), want %d and an untouched index", rs.Envelopes, rs, tc.lost)
			}
			requireEnvs(t, es, want)
			cw := &countingWriterAt{w: es.file}
			if n, err := es.writeDirty(cw); err != nil || n != envSlotSize {
				t.Fatalf("healing save wrote %d bytes (err %v), want the one slot", n, err)
			}
			if err := es.Close(); err != nil {
				t.Fatal(err)
			}
			if _, notes, err := OpenEnvStore(path); err != nil || len(notes) != 0 {
				t.Fatalf("after the healing save: err %v, notes %q", err, notes)
			}
		})
	}
}

// TestEnvStoreRefusesOtherVersions: a version-1 sidecar (one checksummed
// run of records, rewritten whole on every save), a foreign file and a
// missing one are errors; the caller replaces the file.
func TestEnvStoreRefusesOtherVersions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "envelopes.paa")
	if _, _, err := OpenEnvStore(path); !os.IsNotExist(err) {
		t.Fatalf("missing file: %v, want a not-exist error", err)
	}
	v1 := append([]byte("TWPE"), 1, 0, 0, 0, seq.PAASegments, 0, 0, 0)
	v1 = binary.LittleEndian.AppendUint64(v1, 0) // no records
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
	for name, data := range map[string][]byte{
		"version 1":    v1,
		"foreign":      []byte("not an envelope sidecar at all"),
		"short header": []byte("TWPE"),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenEnvStore(path); err == nil {
			t.Errorf("%s: opened without error", name)
		}
	}
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenEnvStore(path); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 file: %v, want an error naming the version", err)
	}
	es, err := CreateEnvStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := es.Close(); err != nil {
		t.Fatal(err)
	}
	if es, notes, err := OpenEnvStore(path); err != nil || len(notes) != 0 || es.Len() != 0 {
		t.Fatalf("replaced file: err %v, notes %q", err, notes)
	}
}
