package query

// Partial is the intermediate state of one scan: the merged accumulator
// set for grouped queries (group cells plus Welch moments, folded in
// partition order), or, for ungrouped selects, the matching row indexes in
// frame row order plus the frame's projected columns — no cell is
// materialized until the result is ordered and limited. A Partial carries
// no finalization — no sorting, no limits, no totals, no empty-result
// decisions; Run applies those after the scan.
type Partial struct {
	acc     *accSet   // grouped: the partition sets merged in partition order
	rows    []int32   // select: matching frame rows, pre-sort and pre-limit
	cols    []*Column // select: the frame's projected columns, in select order
	scanned int       // rows scanned (the frame's row count)
}

// Scanned reports how many frame rows the scan covered.
func (pt *Partial) Scanned() int { return pt.scanned }

// ExecPartial scans fs for q and returns the unfinalized scan state. Unlike
// Run it never reports ErrEmpty: a scan that matched nothing is a normal
// partial.
func ExecPartial(fs *FrameSet, q *Query) (*Partial, error) {
	p, err := compile(fs, q)
	if err != nil {
		return nil, err
	}
	return execPartial(p), nil
}

func execPartial(p *plan) *Partial {
	pt := &Partial{scanned: p.f.NumRows}
	if p.grouped {
		pt.acc = scanGrouped(p)
	} else {
		pt.rows = scanSelect(p)
		pt.cols = make([]*Column, len(p.selects))
		for i, s := range p.selects {
			pt.cols[i] = s.col
		}
	}
	return pt
}
