package seqdb

import (
	"errors"
	"testing"

	"repro/internal/pagefile"
	"repro/internal/seq"
)

func TestRollbackLastReusesIDAndSpace(t *testing.T) {
	db, err := NewMem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a := seq.Sequence{1, 2, 3}
	b := seq.Sequence{4, 5}
	c := seq.Sequence{6, 7, 8, 9}
	for _, s := range []seq.Sequence{a, b} {
		if _, err := db.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	bytesBefore := db.Bytes()
	elemsBefore := db.TotalElements()
	id, err := db.Append(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RollbackLast(id); err != nil {
		t.Fatalf("RollbackLast: %v", err)
	}
	if db.Len() != 2 || db.NumRecords() != 2 {
		t.Fatalf("Len=%d NumRecords=%d after rollback, want 2/2", db.Len(), db.NumRecords())
	}
	if db.Bytes() != bytesBefore {
		t.Fatalf("Bytes = %d after rollback, want %d", db.Bytes(), bytesBefore)
	}
	if db.TotalElements() != elemsBefore {
		t.Fatalf("TotalElements = %d after rollback, want %d", db.TotalElements(), elemsBefore)
	}
	if _, err := db.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(%d) after rollback: err = %v, want ErrNotFound", id, err)
	}
	// The next append must reuse both the ID and the heap space.
	d := seq.Sequence{10, 11}
	id2, err := db.Append(d)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("next Append got id %d, want reused id %d", id2, id)
	}
	got, err := db.Get(id2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(d) || got[0] != 10 || got[1] != 11 {
		t.Fatalf("Get(%d) = %v, want %v", id2, got, d)
	}
	// Earlier records are untouched.
	if got, err := db.Get(0); err != nil || got[2] != 3 {
		t.Fatalf("Get(0) = %v, %v", got, err)
	}
}

func TestRollbackLastRejectsNonNewest(t *testing.T) {
	db, err := NewMem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.RollbackLast(0); err == nil {
		t.Fatal("RollbackLast on empty database succeeded")
	}
	if _, err := db.Append(seq.Sequence{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(seq.Sequence{2}); err != nil {
		t.Fatal(err)
	}
	if err := db.RollbackLast(0); err == nil {
		t.Fatal("RollbackLast(0) succeeded with newest record 1")
	}
	if err := db.RollbackLast(1); err != nil {
		t.Fatalf("RollbackLast(1): %v", err)
	}
}

func TestRollbackLastRejectsDeleted(t *testing.T) {
	db, err := NewMem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	id, err := db.Append(seq.Sequence{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := db.RollbackLast(id); err == nil {
		t.Fatal("RollbackLast succeeded on a tombstoned record")
	}
}

// An AppendAll whose write fails publishes nothing: the directory, the
// stream length and the counters are exactly as before, every earlier
// record reads back unchanged, and the next batch lands at the same ID and
// offset. Tiny pages and a tiny pool make a batch allocate several pages
// and evict dirty ones, so the fault fires at every lead tried.
func TestAppendAllAtomicUnderFaults(t *testing.T) {
	var fb *pagefile.FaultBackend
	db, err := NewMem(Options{
		PageSize:  64,
		PoolPages: 4,
		WrapBackend: func(b pagefile.Backend) pagefile.Backend {
			fb = pagefile.NewFaultBackend(b, -1)
			return fb
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var want []seq.Sequence
	batch := func(n, at int) []seq.Sequence {
		ss := make([]seq.Sequence, n)
		for i := range ss {
			ss[i] = make(seq.Sequence, 1+(at+i)%9)
			for k := range ss[i] {
				ss[i][k] = float64(at*100 + i*10 + k)
			}
		}
		return ss
	}
	for lead := 0; lead < 4; lead++ {
		records, bytes, elems, live := db.NumRecords(), db.Bytes(), db.TotalElements(), db.Len()
		ss := batch(8, lead)
		fb.Arm(lead)
		_, err := db.AppendAll(ss)
		fb.Disarm()
		if err == nil {
			t.Fatalf("lead %d: an 8-record batch over 64-byte pages wrote without %d backend ops", lead, lead+1)
		}
		if db.NumRecords() != records || db.Bytes() != bytes || db.TotalElements() != elems || db.Len() != live {
			t.Fatalf("lead %d: a failed batch moved the heap: records %d→%d bytes %d→%d elems %d→%d live %d→%d",
				lead, records, db.NumRecords(), bytes, db.Bytes(), elems, db.TotalElements(), live, db.Len())
		}
		first, err := db.AppendAll(ss)
		if err != nil {
			t.Fatalf("lead %d: retry: %v", lead, err)
		}
		if int(first) != records {
			t.Fatalf("lead %d: retry landed at %d, want %d", lead, first, records)
		}
		want = append(want, ss...)
		for id, s := range want {
			got, err := db.Get(seq.ID(id))
			if err != nil || len(got) != len(s) || got[len(s)-1] != s[len(s)-1] {
				t.Fatalf("lead %d: record %d = %v, %v; want %v", lead, id, got, err, s)
			}
		}
	}
}
