package main

import (
	"path/filepath"
	"testing"
)

// TestGeneratedSpecsSucceed checks that no adhoc_query spec fails in the
// library, over many seeds: the workload must run without failures.
func TestGeneratedSpecsSucceed(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		p, err := prepare(wAdhocQuery, seed, 1, "")
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range p.reqs {
			if r.prepErr != nil {
				t.Errorf("seed %d request %d %s %s: %v", seed, i, r.path, r.body, r.prepErr)
			}
		}
	}
}

// TestSmallRunsRepeat runs each workload's traced pass twice on one seed
// at a reduced size: the operation digest and the work counts must repeat
// exactly, every child span must lie inside its parent, and each workload
// must load the layer it was chosen for.
func TestSmallRunsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			var digests []string
			var counts []map[string]float64
			for i := 0; i < 2; i++ {
				dir := t.TempDir()
				snapDir := filepath.Join(dir, "snapshots")
				p, err := prepare(w, 3, 0.1, snapDir)
				if err != nil {
					t.Fatal(err)
				}
				chk := &checker{}
				out, err := tracePass(p, snapDir, filepath.Join(dir, "traced.log"), chk)
				if err != nil {
					t.Fatal(err)
				}
				if chk.failed != 0 {
					t.Fatalf("%d of %d responses failed their check", chk.failed, chk.attempted)
				}
				s := summarize(out.spans)
				if s.outside != 0 {
					t.Errorf("%d child spans lie outside their parent", s.outside)
				}
				delta := func(f string) float64 { return out.after.sum(f) - out.before.sum(f) }
				hits := delta("whpcd_exhibit_cache_hits_total")
				misses := delta("whpcd_exhibit_cache_misses_total")
				digests = append(digests, p.digest())
				counts = append(counts, map[string]float64{
					"serve.cache_hit_ratio":  hits / (hits + misses),
					"serve.materializations": delta("whpcd_studies_materialized_total"),
					"query.rows_scanned":     out.counts["query.rows_scanned"],
					"snap.opens":             out.counts["snap.opens"],
					"delta.applies":          out.counts["delta.applies"],
				})
				switch w {
				case wPaperReader:
					if s.libMeasured != 0 || hits/(hits+misses) != 1 {
						t.Errorf("measured phase: %d library spans, hit ratio %v; want 0 and 1", s.libMeasured, hits/(hits+misses))
					}
				case wAdhocQuery:
					if sh := s.share("measured", "query"); sh < 0.5 || hits != 0 {
						t.Errorf("query share of handler time %.2f, %v hits; want > 0.5 and 0", sh, hits)
					}
					for _, l := range []string{"snap", "delta", "report", "synth"} {
						if s.layers["measured"][l] != nil {
							t.Errorf("measured phase has %s spans", l)
						}
					}
				case wStudyChurn:
					sh := s.share("measured", "snap") + s.share("measured", "delta") + s.share("measured", "report")
					if sh < 0.5 || out.counts["snap.opens"] == 0 || out.counts["delta.applies"] == 0 {
						t.Errorf("snap+delta+report share %.2f, %v opens, %v applies", sh, out.counts["snap.opens"], out.counts["delta.applies"])
					}
				}
			}
			if digests[0] != digests[1] {
				t.Errorf("operation digests differ: %s, %s", digests[0], digests[1])
			}
			for k, v := range counts[0] {
				if counts[1][k] != v {
					t.Errorf("%s: %v then %v", k, v, counts[1][k])
				}
			}
			t.Logf("digest %s counts %v", digests[0], counts[0])
		})
	}
}
