package query_test

import (
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/query"
)

// TestSnapshotDictsIndexOnFirstLookup: opening a snapshot hashes no
// dictionary value. Every string column of a snapshot-opened study's
// frames comes without a value→code index; the first Lookup builds the
// index of the dictionary it asks, and only that one, and answers with
// the code the value has.
func TestSnapshotDictsIndexOnFirstLookup(t *testing.T) {
	fresh, err := repro.NewStudy(2021)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "default.whpcsnap")
	if err := fresh.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	opened, err := repro.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fs := opened.Frames()
	var dicts []*query.Dict
	for _, f := range fs.Data() {
		for _, c := range f.Columns {
			if c.Type != query.TStr {
				continue
			}
			dicts = append(dicts, c.Dict)
			if c.Dict.Indexed() {
				t.Errorf("%s.%s: dictionary indexed before any lookup", f.Name, c.Name)
			}
		}
	}
	slots, _ := fs.Frame(query.FrameSlots)
	person, _ := slots.Column("person")
	last := int32(person.Dict.Len() - 1)
	if code, ok := person.Dict.Lookup(person.Dict.Value(last)); !ok || code != last {
		t.Errorf("Lookup of the last person = %d, %v; want %d, true", code, ok, last)
	}
	for _, d := range dicts {
		if got, want := d.Indexed(), d == person.Dict; got != want {
			t.Errorf("after one lookup in slots.person, a dictionary of %d values has Indexed() = %v", d.Len(), got)
		}
	}
}
