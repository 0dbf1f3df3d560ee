package dataset

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/gender"
)

// naivePopulations recomputes the three memoized populations from the
// exported slices alone, without touching the memo or the indexes.
func naivePopulations(d *Dataset) (authors, pc, both []PersonID) {
	a := map[PersonID]bool{}
	m := map[PersonID]bool{}
	for _, p := range d.Papers {
		for _, id := range p.Authors {
			a[id] = true
		}
	}
	for _, c := range d.Conferences {
		for _, id := range c.PCMembers {
			m[id] = true
		}
	}
	u := map[PersonID]bool{}
	for id := range a {
		u[id] = true
	}
	for id := range m {
		u[id] = true
	}
	return sortedIDs(a), sortedIDs(m), sortedIDs(u)
}

func checkPopulations(t *testing.T, d *Dataset, stage string) {
	t.Helper()
	authors, pc, both := naivePopulations(d)
	if got := d.UniqueAuthors(); !slices.Equal(got, authors) {
		t.Errorf("%s: UniqueAuthors = %v, want %v", stage, got, authors)
	}
	if got := d.UniqueRoleHolders(RolePCMember); !slices.Equal(got, pc) {
		t.Errorf("%s: UniqueRoleHolders(PC) = %v, want %v", stage, got, pc)
	}
	if got := d.UniqueAuthorsAndPC(); !slices.Equal(got, both) {
		t.Errorf("%s: UniqueAuthorsAndPC = %v, want %v", stage, got, both)
	}
}

func TestUniquePopulationsMemo(t *testing.T) {
	d := tinyCorpus(t)
	checkPopulations(t, d, "initial")

	// AddConference drops the memo: the new PC members appear.
	if err := d.AddPerson(&Person{ID: "gina", Name: "Gina G", Gender: gender.Female}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddConference(&Conference{
		ID: "ICS18", Name: "ICS", Year: 2018,
		Date:      time.Date(2018, 6, 12, 0, 0, 0, 0, time.UTC),
		PCMembers: []PersonID{"gina", "alice"},
	}); err != nil {
		t.Fatal(err)
	}
	checkPopulations(t, d, "after AddConference")

	// AddPaper drops the memo: the new author appears.
	if err := d.AddPerson(&Person{ID: "hank", Name: "Hank H", Gender: gender.Male}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPaper(&Paper{ID: "p4", Conf: "ICS18", Authors: []PersonID{"hank", "gina"}}); err != nil {
		t.Fatal(err)
	}
	checkPopulations(t, d, "after AddPaper")

	// Mutating a roster or an author list after adding it is visible
	// only after Reindex, which is the documented contract.
	d.Conferences[0].PCMembers = append(d.Conferences[0].PCMembers, "ivan")
	d.Papers[0].Authors = append(d.Papers[0].Authors, "judy")
	d.Reindex()
	checkPopulations(t, d, "after Reindex")

	// A returned slice is the caller's: scribbling on it leaves the next
	// call unchanged.
	for _, get := range []func() []PersonID{
		func() []PersonID { return d.UniqueAuthors() },
		func() []PersonID { return d.UniqueRoleHolders(RolePCMember) },
		d.UniqueAuthorsAndPC,
	} {
		first := get()
		want := slices.Clone(first)
		for i := range first {
			first[i] = "zzz"
		}
		_ = append(first[:0], "aaa")
		if got := get(); !slices.Equal(got, want) {
			t.Errorf("memo corrupted through a returned slice: got %v, want %v", got, want)
		}
	}
	checkPopulations(t, d, "after scribbling")

	// Conference-filtered calls are computed fresh.
	if got := d.UniqueAuthors("ICS18"); !slices.Equal(got, []PersonID{"gina", "hank"}) {
		t.Errorf("UniqueAuthors(ICS18) = %v", got)
	}
	if got := d.UniqueRoleHolders(RolePCMember, "ICS18"); !slices.Equal(got, []PersonID{"alice", "gina"}) {
		t.Errorf("UniqueRoleHolders(PC, ICS18) = %v", got)
	}

	// Concurrent first calls all build or load the memo; under -race this
	// checks that its publication is synchronized.
	t.Run("concurrent first use", testConcurrentFirstUse)
}

// TestAdoptedPopulations: adopted populations answer the accessors,
// through a copy, until a mutation drops them like the memo they stand in
// for; the next read then builds the corpus's own.
func TestAdoptedPopulations(t *testing.T) {
	for _, mutate := range []struct {
		name string
		do   func(d *Dataset) error
	}{
		{"AddConference", func(d *Dataset) error {
			return d.AddConference(&Conference{ID: "ICS18", Name: "ICS", Year: 2018, PCMembers: []PersonID{"alice"}})
		}},
		{"AddPaper", func(d *Dataset) error {
			return d.AddPaper(&Paper{ID: "p9", Conf: d.Conferences[0].ID, Authors: []PersonID{"alice"}})
		}},
		{"Reindex", func(d *Dataset) error { d.Reindex(); return nil }},
	} {
		d := tinyCorpus(t)
		adopted := []PersonID{"adopted"}
		d.AdoptPopulations(adopted, adopted, adopted)
		for _, got := range [][]PersonID{d.UniqueAuthors(), d.UniqueRoleHolders(RolePCMember), d.UniqueAuthorsAndPC()} {
			if !slices.Equal(got, adopted) {
				t.Fatalf("before %s: accessor = %v, want the adopted %v", mutate.name, got, adopted)
			}
			got[0] = "scribbled"
		}
		if got := d.UniqueAuthors(); !slices.Equal(got, []PersonID{"adopted"}) {
			t.Fatalf("adopted populations changed through a returned slice: %v", got)
		}
		if err := mutate.do(d); err != nil {
			t.Fatal(err)
		}
		checkPopulations(t, d, "after "+mutate.name)
	}
}

func testConcurrentFirstUse(t *testing.T) {
	for round := 0; round < 20; round++ {
		d := tinyCorpus(t)
		authors, pc, both := naivePopulations(d)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var got, want []PersonID
				switch g % 3 {
				case 0:
					got, want = d.UniqueAuthors(), authors
				case 1:
					got, want = d.UniqueRoleHolders(RolePCMember), pc
				default:
					got, want = d.UniqueAuthorsAndPC(), both
				}
				if !slices.Equal(got, want) {
					t.Errorf("concurrent first call: got %v, want %v", got, want)
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestMergeSortedMatchesMapUnion checks the memo's linear merge against
// the map-and-sort union it replaced, over hand-picked edge cases and
// seeded random lists with overlaps of every density.
func TestMergeSortedMatchesMapUnion(t *testing.T) {
	union := func(a, b []PersonID) []PersonID {
		seen := map[PersonID]bool{}
		for _, id := range a {
			seen[id] = true
		}
		for _, id := range b {
			seen[id] = true
		}
		return sortedIDs(seen)
	}
	ids := func(xs ...string) []PersonID {
		out := make([]PersonID, len(xs))
		for i, x := range xs {
			out[i] = PersonID(x)
		}
		return out
	}
	cases := [][2][]PersonID{
		{nil, nil},
		{ids("a"), nil},
		{nil, ids("a")},
		{ids("a", "b"), ids("a", "b")},
		{ids("a", "c", "e"), ids("b", "d", "f")},
		{ids("b", "c"), ids("a", "d")},
		{ids("a", "b", "c"), ids("c", "d")},
	}
	rng := rand.New(rand.NewPCG(2021, 18))
	for i := 0; i < 200; i++ {
		var a, b []PersonID
		n := rng.IntN(60)
		for id := 0; id < n; id++ {
			name := PersonID(fmt.Sprintf("p%03d", id))
			switch rng.IntN(4) {
			case 0:
				a = append(a, name)
			case 1:
				b = append(b, name)
			case 2:
				a, b = append(a, name), append(b, name)
			}
		}
		cases = append(cases, [2][]PersonID{a, b})
	}
	for i, c := range cases {
		got, want := mergeSorted(c[0], c[1]), union(c[0], c[1])
		if !slices.Equal(got, want) {
			t.Errorf("case %d: mergeSorted(%v, %v) = %v, want %v", i, c[0], c[1], got, want)
		}
	}
}
