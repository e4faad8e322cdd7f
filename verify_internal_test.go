package twsim

// Internal (same-package) test: Verify must detect a desynchronized
// heap/index pair, which cannot be produced through the public API.

import (
	"strings"
	"testing"

	"repro/internal/seq"
)

func TestVerifyDetectsMissingIndexEntry(t *testing.T) {
	db, err := OpenMem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := []float64{1, 2, 3}
	id, err := db.Add(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Add([]float64{4, 5}); err != nil {
		t.Fatal(err)
	}
	// Desynchronize: remove the index entry but leave the heap record live.
	if !db.index.Drop(id, seq.MustFeature(s)) {
		t.Fatal("index drop found nothing")
	}
	err = db.Verify()
	if err == nil {
		t.Fatal("Verify passed on desynchronized database")
	}
	if !strings.Contains(err.Error(), "missing from index") &&
		!strings.Contains(err.Error(), "entries") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestVerifyDetectsCountMismatch(t *testing.T) {
	db, err := OpenMem(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Add([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Desynchronize the other way: an extra index entry with no heap
	// record behind it.
	if err := db.index.Insert(seq.ID(99), seq.Sequence{7, 8}); err != nil {
		t.Fatal(err)
	}
	err = db.Verify()
	if err == nil {
		t.Fatal("Verify passed with phantom index entry")
	}
	if !strings.Contains(err.Error(), "index holds") {
		t.Errorf("unhelpful error: %v", err)
	}
}
