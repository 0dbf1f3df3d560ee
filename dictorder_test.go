package repro

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/synth"
)

// dictOrderQueries returns, for every string column of every frame of s,
// the queries whose answers depend on the column's dictionary: a group-by
// in appearance order (dictionary code order), a complete group-by (which
// walks codes), and an eq filter on a person ID and on a paper ID (which
// look the value up).
func dictOrderQueries(s *Study) []*query.Query {
	d := s.Dataset()
	paper := d.Papers[len(d.Papers)/2]
	ids := []string{string(paper.Lead()), string(paper.ID)}
	fs := s.Frames()
	var out []*query.Query
	for _, frame := range fs.Names() {
		for _, col := range fs.Schema(frame) {
			name, ok := strings.CutSuffix(col, ":str")
			if !ok {
				continue
			}
			count := []query.Agg{{Op: "count", As: "n"}}
			out = append(out,
				&query.Query{Frame: frame, GroupBy: []query.Key{{Col: name}}, Aggs: count,
					OrderBy: []query.Order{{Key: name, Appearance: true}}, Format: query.FormatCSV},
				&query.Query{Frame: frame, GroupBy: []query.Key{{Col: name}}, Aggs: count,
					Complete: true, Format: query.FormatCSV})
			for _, id := range ids {
				out = append(out, &query.Query{Frame: frame,
					Where:  []query.Pred{{Col: name, Op: "eq", Value: id}},
					Select: []query.Key{{Col: name}}, Format: query.FormatCSV})
			}
		}
	}
	return out
}

// answer runs q over s and returns its encoding, or the error's text.
func answer(s *Study, q *query.Query) string {
	res, err := s.Query(q)
	if err != nil {
		return "error: " + err.Error()
	}
	body, _, err := res.Encode(q.Format)
	if err != nil {
		return "error: " + err.Error()
	}
	return string(body)
}

// TestSnapshotKeepsDictionaryOrder pins every dictionary's code order
// across the snapshot codec: on the default and flagship corpora, and on
// the flagship grown by SC'21 opened from its compacted snapshot, every
// dictOrderQueries answer of the snapshot-opened study equals the
// synthesized study's byte for byte.
func TestSnapshotKeepsDictionaryOrder(t *testing.T) {
	pairs := []struct {
		name   string
		synth  func() (*Study, error)
		opened func(*Study) (*Study, error)
	}{
		{"default", func() (*Study, error) { return NewStudy(2021) }, reopen},
		{"flagship", func() (*Study, error) { return NewStudyFromConfig(synth.FlagshipSeries(2021)) }, reopen},
		{"flagship+SC21 compacted", func() (*Study, error) { return deltaFix.resynth, nil },
			func(*Study) (*Study, error) { return OpenSnapshotFile(materializeFiles(t)["compacted"]) }},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			synthesized, err := p.synth()
			if err != nil {
				t.Fatal(err)
			}
			opened, err := p.opened(synthesized)
			if err != nil {
				t.Fatal(err)
			}
			qs := dictOrderQueries(synthesized)
			for _, q := range qs {
				if want, got := answer(synthesized, q), answer(opened, q); want != got {
					t.Errorf("%s differs:\nsynthesized:\n%s\nsnapshot-opened:\n%s", q.Canonical(), want, got)
				}
			}
		})
	}
}

// reopen writes s as a snapshot and opens it.
func reopen(s *Study) (*Study, error) {
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return openSnapshot(buf.Bytes())
}

// TestConcurrentFirstLookups: queries on a freshly opened study may build
// its dictionaries' indexes concurrently. Goroutines released together
// each run every dictOrderQueries query in the same order, so they race
// to the first lookup of each dictionary; every answer must equal the
// synthesized study's. Run under -race it checks the index build is
// synchronized.
func TestConcurrentFirstLookups(t *testing.T) {
	synthesized, err := NewStudy(2021)
	if err != nil {
		t.Fatal(err)
	}
	qs := dictOrderQueries(synthesized)
	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = answer(synthesized, q)
	}
	opened, err := reopen(synthesized)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	start := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i, q := range qs {
				if got := answer(opened, q); got != want[i] {
					errs <- fmt.Errorf("worker %d: %s differs", w, q.Canonical())
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
