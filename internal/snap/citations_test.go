package snap

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cite"
	"repro/internal/query"
)

// citedSnapshot serializes tinyDataset with frames and its synthesized
// citation graph, returning the bytes and the graph.
func citedSnapshot(t testing.TB) ([]byte, *cite.Graph) {
	t.Helper()
	d := tinyDataset()
	g := cite.Synthesize(d)
	var buf bytes.Buffer
	if err := Write(&buf, Snapshot{Corpus: d, Frames: query.NewFrameSet(d), Citations: g}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes(), g
}

func TestCitationsRoundTrip(t *testing.T) {
	data, want := citedSnapshot(t)
	if len(want.Edges) == 0 {
		t.Fatal("tiny corpus synthesized no edges; round trip proves nothing")
	}
	s, err := Read(data, Full, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Corpus == nil || s.Frames == nil {
		t.Fatal("Read dropped the corpus or frames of a cited snapshot")
	}
	if !reflect.DeepEqual(s.Citations, want) {
		t.Fatalf("decoded graph differs from the written one: got %+v, want %d edges over %d papers",
			s.Citations, len(want.Edges), want.Papers)
	}
}

func TestCitedWriteDeterministic(t *testing.T) {
	a, _ := citedSnapshot(t)
	b, _ := citedSnapshot(t)
	if !bytes.Equal(a, b) {
		t.Error("two cited writes of the same corpus produced different bytes")
	}
}

func TestCitedEveryByteFlipRejected(t *testing.T) {
	data, _ := citedSnapshot(t)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := Read(mut, Full, nil); err == nil {
			t.Fatalf("Read accepted a cited snapshot with byte %d flipped", i)
		}
	}
}

func TestCitedTruncationsRejected(t *testing.T) {
	data, _ := citedSnapshot(t)
	for n := 0; n < len(data); n++ {
		if _, err := Read(data[:n], Full, nil); err == nil {
			t.Fatalf("Read accepted a %d-byte prefix of a %d-byte cited snapshot", n, len(data))
		}
	}
}

// TestCitationsAbsent: a citation-free snapshot decodes with a nil graph
// and no error.
func TestCitationsAbsent(t *testing.T) {
	for _, withFrames := range []bool{false, true} {
		s, err := Read(tinySnapshot(t, withFrames), Full, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.Corpus == nil || s.Citations != nil {
			t.Errorf("plain snapshot (frames %v): corpus %v, graph %v; want corpus, nil graph", withFrames, s.Corpus != nil, s.Citations)
		}
	}
}

// TestCitationsSectionWithoutFlagRejected covers the version gate's
// presence side: a citations section whose meta flag is missing must fail
// validation, not decode silently.
func TestCitationsSectionWithoutFlagRejected(t *testing.T) {
	data, _ := citedSnapshot(t)
	r, err := parse(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Re-emit every section of a valid cited snapshot, but with only the
	// frames flag bit set in meta.
	var sections []wsection
	for _, s := range r.sections {
		if s.name != SectionMeta {
			sections = append(sections, wsection{s.name, r.payloads[s.name]})
		}
	}
	var buf bytes.Buffer
	if err := emit(&buf, flagHasFrames, [3]int{r.meta.persons, r.meta.conferences, r.meta.papers}, sections); err != nil {
		t.Fatal(err)
	}
	_, err = Read(buf.Bytes(), Full, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt for citations section without flag", err)
	}
}

// TestCitationsWriterMisuse: Write rejects a citation graph that does not
// fit the corpus, and citations on a delta snapshot.
func TestCitationsWriterMisuse(t *testing.T) {
	d := tinyDataset()
	info, mini := tinyDeltaMini()
	for _, tc := range []struct {
		name string
		s    Snapshot
	}{
		{"wrong paper count", Snapshot{Corpus: d, Citations: &cite.Graph{Papers: len(d.Papers) + 1}}},
		{"invalid graph", Snapshot{Corpus: d, Citations: &cite.Graph{Papers: len(d.Papers), Edges: []cite.Edge{{Src: 0, Dst: 0}}}}},
		{"delta with citations", Snapshot{Corpus: mini, Delta: &info, Citations: cite.Synthesize(mini)}},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, tc.s); err == nil {
			t.Errorf("%s: Write succeeded", tc.name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: rejected Write emitted %d bytes", tc.name, buf.Len())
		}
	}
}

// TestDecodeCitationsRejectsCorruptPayloads drives the payload validator
// directly with structurally impossible inputs that a checksum cannot
// catch (the bytes are internally consistent, just wrong).
func TestDecodeCitationsRejectsCorruptPayloads(t *testing.T) {
	const papers = 3
	encode := func(gotPapers int, edges [][3]uint64) []byte {
		e := &enc{}
		e.uvarint(uint64(gotPapers))
		e.uvarint(uint64(len(edges)))
		for _, ed := range edges {
			e.uvarint(ed[0])
			e.uvarint(ed[1])
			e.uvarint(ed[2])
		}
		return e.bytesOut()
	}
	cases := map[string][]byte{
		"paper count mismatch": encode(papers+1, nil),
		"dst out of range":     encode(papers, [][3]uint64{{0, uint64(papers), 1}}),
		"null out of range":    encode(papers, [][3]uint64{{0, 1, uint64(papers)}}),
		"src out of range":     encode(papers, [][3]uint64{{uint64(papers), 1, 1}}),
		"self citation":        encode(papers, [][3]uint64{{0, 0, 1}}),
		"trailing bytes":       append(encode(papers, nil), 0x00),
		"truncated edge":       encode(papers, nil)[:1],
	}
	for name, payload := range cases {
		g, err := decodeCitations(payload, papers)
		if err == nil {
			t.Errorf("%s: decode succeeded with %d edges", name, len(g.Edges))
			continue
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v (%T) is not a *FormatError", name, err, err)
		}
	}
	// A valid payload with delta-encoded sources decodes to absolute ones.
	g, err := decodeCitations(encode(papers, [][3]uint64{{0, 1, 2}, {2, 0, 1}}), papers)
	if err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	want := []cite.Edge{{Src: 0, Dst: 1, Null: 2}, {Src: 2, Dst: 0, Null: 1}}
	if !reflect.DeepEqual(g.Edges, want) {
		t.Errorf("decoded edges %v, want %v", g.Edges, want)
	}
}
