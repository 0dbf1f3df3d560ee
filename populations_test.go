package repro

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// genericPopulations computes the three all-conference populations from a
// corpus's exported slices alone, with a set and a sort, as the
// dataset's own builder does and without reading its memo.
func genericPopulations(d *dataset.Dataset) (authors, pcMembers, both []dataset.PersonID) {
	sorted := func(set map[dataset.PersonID]bool) []dataset.PersonID {
		out := make([]dataset.PersonID, 0, len(set))
		for id := range set {
			out = append(out, id)
		}
		slices.Sort(out)
		return out
	}
	a, m, u := map[dataset.PersonID]bool{}, map[dataset.PersonID]bool{}, map[dataset.PersonID]bool{}
	for _, p := range d.Papers {
		for _, id := range p.Authors {
			a[id], u[id] = true, true
		}
	}
	for _, c := range d.Conferences {
		for _, id := range c.PCMembers {
			m[id], u[id] = true, true
		}
	}
	return sorted(a), sorted(m), sorted(u)
}

// checkPopulations fails t unless d's population accessors answer what
// genericPopulations builds from d's slices.
func checkPopulations(t *testing.T, what string, d *dataset.Dataset) {
	t.Helper()
	authors, pcMembers, both := genericPopulations(d)
	if len(authors) == 0 || len(pcMembers) == 0 {
		t.Fatalf("%s: %d authors and %d PC members; the check needs both", what, len(authors), len(pcMembers))
	}
	for _, c := range []struct {
		name      string
		got, want []dataset.PersonID
	}{
		{"UniqueAuthors", d.UniqueAuthors(), authors},
		{"UniqueRoleHolders(PC member)", d.UniqueRoleHolders(dataset.RolePCMember), pcMembers},
		{"UniqueAuthorsAndPC", d.UniqueAuthorsAndPC(), both},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s: %s has %d people, the generic build %d, or they differ", what, c.name, len(c.got), len(c.want))
		}
	}
}

// TestSnapshotPopulationsMatchGeneric: the populations the snapshot
// decoder builds from its person-table bitmaps are the ones the generic
// builder builds from the corpus, on the default, flagship and extended
// corpora and on the compacted snapshot of a delta-grown study; an
// ApplyDelta after open drops them, and the populations read after it are
// the grown corpus's.
func TestSnapshotPopulationsMatchGeneric(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  synth.Config
	}{
		{"default", synth.Default2017(2021)},
		{"flagship", synth.FlagshipSeries(2021)},
		{"extended", synth.ExtendedSystems(2021)},
	} {
		fresh, err := NewStudyFromConfig(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fresh.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		opened, err := openSnapshot(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		checkPopulations(t, c.name+" opened", opened.Dataset())
		if !slices.Equal(opened.Dataset().UniqueAuthorsAndPC(), fresh.Dataset().UniqueAuthorsAndPC()) {
			t.Errorf("%s: opened study's authors and PC members differ from the fresh study's", c.name)
		}
	}

	paths := materializeFiles(t)
	compacted, err := OpenSnapshotFile(paths["compacted"])
	if err != nil {
		t.Fatal(err)
	}
	checkPopulations(t, "compacted", compacted.Dataset())

	grown, err := OpenSnapshotFile(paths["base"])
	if err != nil {
		t.Fatal(err)
	}
	before := grown.Dataset().UniqueAuthorsAndPC()
	if err := grown.ApplyDeltaFile(paths["delta"]); err != nil {
		t.Fatal(err)
	}
	checkPopulations(t, "base + delta", grown.Dataset())
	after := grown.Dataset().UniqueAuthorsAndPC()
	if len(after) <= len(before) {
		t.Errorf("base + delta: %d authors and PC members, not more than the base's %d", len(after), len(before))
	}
	if !slices.Equal(after, compacted.Dataset().UniqueAuthorsAndPC()) {
		t.Error("base + delta and its compacted snapshot have different authors and PC members")
	}
}
