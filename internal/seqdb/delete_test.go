package seqdb

import (
	"errors"
	"testing"

	"repro/internal/seq"
)

func TestDeleteBasics(t *testing.T) {
	db := newMemDB(t)
	for i := 0; i < 5; i++ {
		if _, err := db.Append(seq.Sequence{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := db.Delete(2)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if db.Len() != 4 {
		t.Errorf("Len = %d, want 4", db.Len())
	}
	if db.NumRecords() != 5 {
		t.Errorf("NumRecords = %d, want 5", db.NumRecords())
	}
	if _, err := db.Get(2); !errors.Is(err, ErrDeleted) {
		t.Errorf("Get(deleted) err = %v", err)
	}
	// Other IDs unaffected.
	if s, err := db.Get(3); err != nil || s[0] != 3 {
		t.Errorf("Get(3) = %v, %v", s, err)
	}
	// Double delete reports false.
	ok, err = db.Delete(2)
	if err != nil || ok {
		t.Errorf("second Delete = %v, %v", ok, err)
	}
	// Out of range errors.
	if _, err := db.Delete(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete(99) err = %v", err)
	}
}

func TestScanSkipsDeleted(t *testing.T) {
	db := newMemDB(t)
	for i := 0; i < 10; i++ {
		if _, err := db.Append(seq.Sequence{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []seq.ID{0, 4, 9} {
		if _, err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var seen []seq.ID
	if err := db.Scan(func(id seq.ID, s seq.Sequence) error {
		seen = append(seen, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []seq.ID{1, 2, 3, 5, 6, 7, 8}
	if len(seen) != len(want) {
		t.Fatalf("scanned %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("scanned %v, want %v", seen, want)
		}
	}
}

func TestTombstonesPersist(t *testing.T) {
	dir := t.TempDir()
	db, err := Create(dir, Options{PageSize: 256, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := db.Append(seq.Sequence{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{PageSize: 256, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 4 || db2.NumRecords() != 6 {
		t.Fatalf("reopened Len=%d NumRecords=%d", db2.Len(), db2.NumRecords())
	}
	if _, err := db2.Get(1); !errors.Is(err, ErrDeleted) {
		t.Errorf("Get(1) after reopen: %v", err)
	}
	if s, err := db2.Get(4); err != nil || s[0] != 4 {
		t.Errorf("Get(4) after reopen: %v, %v", s, err)
	}
	// Appending continues past the tombstones.
	id, err := db2.Append(seq.Sequence{42})
	if err != nil || id != 6 {
		t.Errorf("Append after reopen = %d, %v", id, err)
	}
}
