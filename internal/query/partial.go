package query

import (
	"errors"
	"fmt"
)

// PartitionRows is the fixed scan partition width, exported so slice
// boundaries can be aligned to it. Scanning frame slices separately is
// byte-identical to one scan only when every slice starts on a partition
// boundary: MergeRun then merges per-partition partials in global
// partition order, reproducing the exact addition tree of one process.
const PartitionRows = partitionRows

// ErrPartialMismatch marks an attempt to merge partials produced by a
// different query (or against a different schema) than the one being
// finalized — a coordinator bug, not a data condition.
var ErrPartialMismatch = errors.New("query: partial belongs to a different query")

// Partial is the merge-safe intermediate state of one scan: per-partition
// accumulator sets for grouped queries (group cells plus Welch moment
// partials, in partition order), or, for ungrouped selects, the matching
// row indexes in frame row order plus the frame's projected columns —
// no cell is materialized until the merged result is ordered and limited.
// Partials carry no finalization — no sorting, no limits, no totals, no
// empty-result decisions — so they can be merged across shards before any
// order-sensitive step runs.
//
// A Partial references the dictionaries of the frames it was scanned
// from. Shards built with Frame.Slice share those dictionaries, which is
// what keeps group tokens and dictionary codes comparable across shards.
type Partial struct {
	hash    string // Query.Hash of the spec that produced this partial
	grouped bool
	parts   []*accSet // grouped: one accumulator set per partition
	rows    []int32   // select: matching frame rows, pre-sort and pre-limit
	cols    []*Column // select: the frame's projected columns, in select order
	scanned int       // rows scanned (the shard frame's row count)
}

// Hash returns the canonical hash of the query that produced the partial.
func (pt *Partial) Hash() string { return pt.hash }

// Scanned reports how many frame rows the scan covered.
func (pt *Partial) Scanned() int { return pt.scanned }

// ExecPartial scans fs for q and returns the merge-safe partial result.
// Unlike Run it never reports ErrEmpty: a shard that matched nothing is a
// normal partial, and only the coordinator — after merging every shard —
// can decide the result is globally empty.
func ExecPartial(fs *FrameSet, q *Query) (*Partial, error) {
	p, err := compile(fs, q)
	if err != nil {
		return nil, err
	}
	return execPartial(p, q), nil
}

// MergeRun merges partials in the order given and finalizes the result
// exactly as Run would have: empty-result rules, domain completion, sort,
// limit, totals and compare all run over the merged state. fs only
// provides the schema (and shared dictionaries) to compile against; the
// data already lives in the partials. Callers must present partials in
// global partition order — for aligned shards, simply shard order.
func MergeRun(fs *FrameSet, q *Query, partials []*Partial) (*Result, error) {
	p, err := compile(fs, q)
	if err != nil {
		return nil, err
	}
	return mergeRun(p, q, partials)
}

func execPartial(p *plan, q *Query) *Partial {
	pt := &Partial{hash: q.Hash(), grouped: p.grouped, scanned: p.f.NumRows}
	if p.grouped {
		pt.parts = scanGrouped(p)
	} else {
		pt.rows = scanSelect(p)
		pt.cols = make([]*Column, len(p.selects))
		for i, s := range p.selects {
			pt.cols[i] = s.col
		}
	}
	return pt
}

func mergeRun(p *plan, q *Query, partials []*Partial) (*Result, error) {
	hash := q.Hash()
	for _, pt := range partials {
		if pt.hash != hash || pt.grouped != p.grouped {
			return nil, fmt.Errorf("%w (got %s, want %s)", ErrPartialMismatch, pt.hash, hash)
		}
	}
	if !p.grouped {
		return finalizeSelect(p, partials), nil
	}
	var parts []*accSet
	if len(partials) == 1 {
		parts = partials[0].parts
	} else {
		n := 0
		for _, pt := range partials {
			n += len(pt.parts)
		}
		parts = make([]*accSet, 0, n)
		for _, pt := range partials {
			parts = append(parts, pt.parts...)
		}
	}
	acc, err := mergeGrouped(p, parts)
	if err != nil {
		return nil, err
	}
	return finalizeGrouped(p, acc)
}
