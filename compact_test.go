package twsim_test

import (
	"testing"

	twsim "repro"
)

func TestCompactTo(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	data := randomWalks(62, 30, 5, 15)
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	for _, id := range []twsim.ID{3, 10, 20} {
		if _, err := db.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	dst, mapping, err := db.CompactTo(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if dst.Len() != 27 {
		t.Fatalf("compacted Len = %d", dst.Len())
	}
	if len(mapping) != 27 {
		t.Fatalf("mapping has %d entries", len(mapping))
	}
	if _, ok := mapping[3]; ok {
		t.Error("deleted id present in mapping")
	}
	// Every surviving sequence is intact under its new ID.
	for old, new := range mapping {
		got, err := dst.Get(new)
		if err != nil {
			t.Fatal(err)
		}
		want := data[old]
		if len(got) != len(want) {
			t.Fatalf("old %d -> new %d: length mismatch", old, new)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("old %d -> new %d: content mismatch", old, new)
			}
		}
	}
	// Search works on the compacted database and the source is untouched.
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	res, err := dst.Search(data[0], 0)
	if err != nil || len(res.Matches) == 0 {
		t.Fatalf("compacted search: %v, %v", res, err)
	}
	if db.Len() != 27 {
		t.Errorf("source Len changed: %d", db.Len())
	}
}
