package twsim_test

import (
	"testing"

	twsim "repro"
)

func TestRemove(t *testing.T) {
	db, err := twsim.OpenMem(twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	data := randomWalks(91, 50, 10, 20)
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}

	// The sequence is findable before removal...
	res, err := db.Search(data[7], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 || res.Matches[0].ID != 7 {
		t.Fatalf("pre-remove search: %+v", res.Matches)
	}

	ok, err := db.Remove(7)
	if err != nil || !ok {
		t.Fatalf("Remove = %v, %v", ok, err)
	}
	if db.Len() != 49 {
		t.Errorf("Len = %d", db.Len())
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// ...and gone afterwards, from every method.
	res, err = db.Search(data[7], 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if m.ID == 7 {
			t.Fatal("removed sequence still returned by index search")
		}
	}
	naive, err := db.BaselineNaiveScan().Search(data[7], 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range naive.Matches {
		if m.ID == 7 {
			t.Fatal("removed sequence still returned by scan")
		}
	}
	if _, err := db.Get(7); err == nil {
		t.Error("Get of removed sequence succeeded")
	}

	// Removing again (or a nonexistent id) reports false without error.
	ok, err = db.Remove(7)
	if err != nil || ok {
		t.Errorf("second Remove = %v, %v", ok, err)
	}
	ok, err = db.Remove(9999)
	if err != nil || ok {
		t.Errorf("Remove(9999) = %v, %v", ok, err)
	}

	// Index and scan still agree on a fresh query after removal.
	q := data[3]
	a, err := db.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.BaselineNaiveScan().Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Matches) != len(b.Matches) {
		t.Fatalf("post-remove disagreement: %d vs %d", len(a.Matches), len(b.Matches))
	}
}

func TestRemovePersists(t *testing.T) {
	dir := t.TempDir()
	db, err := twsim.Create(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := randomWalks(92, 20, 5, 15)
	if _, err := db.AddAll(data); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Remove(4); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := twsim.Open(dir, twsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 19 {
		t.Fatalf("reopened Len = %d", db2.Len())
	}
	if _, err := db2.Get(4); err == nil {
		t.Error("removed sequence readable after reopen")
	}
	res, err := db2.Search(data[4], 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if m.ID == 4 {
			t.Fatal("removed sequence searchable after reopen")
		}
	}
}

// TestSubseqSearchSkipsRemovedRecords: a window index built before a Remove
// still holds the removed record's windows. A search skips them, on both
// engines, instead of failing with the heap's "sequence deleted".
func TestSubseqSearchSkipsRemovedRecords(t *testing.T) {
	data := randomWalks(93, 30, 20, 40)
	backends := []struct {
		name string
		open func() (twsim.Backend, error)
	}{
		{"single", func() (twsim.Backend, error) { return twsim.OpenMem(twsim.Options{}) }},
		{"sharded", func() (twsim.Backend, error) { return twsim.OpenMemSharded(twsim.ShardedOptions{Shards: 3}) }},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			db, err := be.open()
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			ids, err := db.AddBatch(data)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := db.BuildSubseqIndex([]int{8}, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			q, gone := data[5][4:12], ids[5]
			found := func() bool {
				t.Helper()
				res, err := idx.Search(q, 0)
				if err != nil {
					t.Fatalf("Search: %v", err)
				}
				for _, m := range res.Matches {
					if m.ID == gone {
						return true
					}
				}
				return false
			}
			if !found() {
				t.Fatalf("window cut from record %d not found before Remove", gone)
			}
			if ok, err := db.Remove(gone); err != nil || !ok {
				t.Fatalf("Remove(%d) = %v, %v", gone, ok, err)
			}
			if found() {
				t.Fatalf("removed record %d still matched", gone)
			}
		})
	}
}
