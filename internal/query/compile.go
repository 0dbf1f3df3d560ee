package query

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Predicate operators, compiled from their JSON names.
const (
	opEq = iota
	opNe
	opIn
	opLt
	opLe
	opGt
	opGe
	opNull
	opNotNull
)

var opNames = map[string]int{
	"eq": opEq, "ne": opNe, "in": opIn,
	"lt": opLt, "le": opLe, "gt": opGt, "ge": opGe,
	"null": opNull, "notnull": opNotNull,
}

// Aggregate kinds.
const (
	aCount = iota
	aSum
	aMean
	aMin
	aMax
	aFirst
	aRatio
)

var aggNames = map[string]int{
	"count": aCount, "sum": aSum, "mean": aMean,
	"min": aMin, "max": aMax, "first": aFirst, "ratio": aRatio,
}

// leaf is one compiled predicate over one column, with the comparison
// value pre-resolved to the column's physical representation (dictionary
// code, int64, float64, bool).
type leaf struct {
	col    *Column
	op     int
	code   int32
	codeOK bool
	codes  map[int32]bool
	i      int64
	is     map[int64]bool
	f      float64
	b      bool
}

// match evaluates the leaf at one row.
func (l *leaf) match(i int) bool {
	switch l.op {
	case opNull:
		return !l.col.valid(i)
	case opNotNull:
		return l.col.valid(i)
	}
	if !l.col.valid(i) {
		return false
	}
	switch l.col.Type {
	case TStr:
		c := l.col.Codes[i]
		switch l.op {
		case opEq:
			return l.codeOK && c == l.code
		case opNe:
			return !l.codeOK || c != l.code
		case opIn:
			return l.codes[c]
		}
	case TBool:
		v := l.col.Bools.Get(i)
		switch l.op {
		case opEq:
			return v == l.b
		case opNe:
			return v != l.b
		}
	case TInt:
		v := l.col.Ints[i]
		switch l.op {
		case opEq:
			return v == l.i
		case opNe:
			return v != l.i
		case opIn:
			return l.is[v]
		case opLt:
			return v < l.i
		case opLe:
			return v <= l.i
		case opGt:
			return v > l.i
		case opGe:
			return v >= l.i
		}
	case TFloat:
		v := l.col.Floats[i]
		switch l.op {
		case opLt:
			return v < l.f
		case opLe:
			return v <= l.f
		case opGt:
			return v > l.f
		case opGe:
			return v >= l.f
		}
	}
	return false
}

// orGroup is the OR of its leaves; a filter is the AND of its orGroups.
type orGroup []leaf

func matchFilter(filter []orGroup, row int) bool {
	for gi := range filter {
		g := filter[gi]
		ok := false
		for li := range g {
			if g[li].match(row) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// keyRef is one compiled group key or projection column.
type keyRef struct {
	col  *Column
	name string
	hide bool
}

// aggOp is one compiled aggregate.
type aggOp struct {
	kind     int
	col      *Column // nil for bare count and ratio
	num, den *Column // ratio flags
	where    []orGroup
	name     string
	out      ColType // output cell type
}

// orderRef sorts by one slot of the unified row (keys then aggs).
type orderRef struct {
	slot       int
	desc       bool
	appearance bool
	kind       ColType
	isKey      bool
}

// comparePlan is a compiled two-group test.
type comparePlan struct {
	test     string
	col      *Column // welch value column
	numIdx   int     // chisq: agg slots
	denIdx   int
	tokens   [2][]uint64 // target group key tokens
	missing  [2]bool     // a group value absent from the dictionary
	labels   [2]string
	rawSpecs [2][]any
}

// plan is one compiled, executable query.
type plan struct {
	f        *Frame
	where    []orGroup
	keys     []keyRef
	aggs     []aggOp
	selects  []keyRef
	orderBy  []orderRef
	totals   string
	limit    int
	complete bool
	compare  *comparePlan
	grouped  bool
}

// invalidf builds an ErrInvalid-wrapped validation error.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// resolveColumn finds a frame column, listing the schema on failure so the
// error doubles as documentation.
func resolveColumn(f *Frame, name, where string) (*Column, error) {
	if name == "" {
		return nil, invalidf("%s: missing column name", where)
	}
	if c, ok := f.Column(name); ok {
		return c, nil
	}
	return nil, invalidf("%s: unknown column %q in frame %q (have %s)",
		where, name, f.Name, strings.Join(f.ColumnNames(), ", "))
}

// toInt64 converts a JSON number to an exact int64, rejecting fractional
// and out-of-range values without raw float equality.
func toInt64(v float64) (int64, error) {
	if math.IsNaN(v) || v >= math.MaxInt64 || v <= math.MinInt64 {
		return 0, fmt.Errorf("number %v out of int range", v)
	}
	frac := v - math.Trunc(v)
	if frac > 0 || frac < 0 {
		return 0, fmt.Errorf("number %v is not an integer", v)
	}
	return int64(v), nil
}

// compileLeaf type-checks one leaf predicate and pre-resolves its value.
func compileLeaf(f *Frame, p Pred, where string) (leaf, error) {
	col, err := resolveColumn(f, p.Col, where)
	if err != nil {
		return leaf{}, err
	}
	op, ok := opNames[p.Op]
	if !ok {
		ops := make([]string, 0, len(opNames))
		for name := range opNames {
			ops = append(ops, name)
		}
		sort.Strings(ops)
		return leaf{}, invalidf("%s: unknown operator %q on column %q (have %s)",
			where, p.Op, p.Col, strings.Join(ops, ", "))
	}
	l := leaf{col: col, op: op}
	if op == opNull || op == opNotNull {
		return l, nil
	}
	switch col.Type {
	case TStr:
		switch op {
		case opEq, opNe:
			s, ok := p.Value.(string)
			if !ok {
				return leaf{}, invalidf("%s: column %q is a string; %s needs a string value", where, p.Col, p.Op)
			}
			l.code, l.codeOK = col.Dict.Lookup(s)
		case opIn:
			l.codes = make(map[int32]bool, len(p.Values))
			for _, v := range p.Values {
				s, ok := v.(string)
				if !ok {
					return leaf{}, invalidf("%s: column %q is a string; in needs string values", where, p.Col)
				}
				if c, ok := col.Dict.Lookup(s); ok {
					l.codes[c] = true
				}
			}
		default:
			return leaf{}, invalidf("%s: operator %q not supported on string column %q (use eq, ne, in, null, notnull)", where, p.Op, p.Col)
		}
	case TBool:
		if op != opEq && op != opNe {
			return leaf{}, invalidf("%s: operator %q not supported on bool column %q (use eq, ne, null, notnull)", where, p.Op, p.Col)
		}
		b, ok := p.Value.(bool)
		if !ok {
			return leaf{}, invalidf("%s: column %q is a bool; %s needs true or false", where, p.Col, p.Op)
		}
		l.b = b
	case TInt:
		if op == opIn {
			l.is = make(map[int64]bool, len(p.Values))
			for _, v := range p.Values {
				n, ok := v.(float64)
				if !ok {
					return leaf{}, invalidf("%s: column %q is an int; in needs numbers", where, p.Col)
				}
				i, err := toInt64(n)
				if err != nil {
					return leaf{}, invalidf("%s: column %q: %v", where, p.Col, err)
				}
				l.is[i] = true
			}
			break
		}
		n, ok := p.Value.(float64)
		if !ok {
			return leaf{}, invalidf("%s: column %q is an int; %s needs a number", where, p.Col, p.Op)
		}
		i, err := toInt64(n)
		if err != nil {
			return leaf{}, invalidf("%s: column %q: %v", where, p.Col, err)
		}
		l.i = i
	case TFloat:
		switch op {
		case opLt, opLe, opGt, opGe:
		default:
			// Exact float equality is a rounding trap; the engine only
			// offers range predicates on float columns.
			return leaf{}, invalidf("%s: operator %q not supported on float column %q (use lt, le, gt, ge, null, notnull)", where, p.Op, p.Col)
		}
		n, ok := p.Value.(float64)
		if !ok {
			return leaf{}, invalidf("%s: column %q is a float; %s needs a number", where, p.Col, p.Op)
		}
		l.f = n
	}
	return l, nil
}

// compilePreds compiles an AND-list of predicates, expanding one level of
// "any" (OR) nesting.
func compilePreds(f *Frame, preds []Pred, where string) ([]orGroup, error) {
	out := make([]orGroup, 0, len(preds))
	for i, p := range preds {
		ctx := fmt.Sprintf("%s[%d]", where, i)
		if len(p.Any) > 0 {
			if p.Col != "" || p.Op != "" || p.Value != nil || p.Values != nil {
				return nil, invalidf("%s: an any-predicate carries only its alternatives", ctx)
			}
			g := make(orGroup, 0, len(p.Any))
			for j, alt := range p.Any {
				if len(alt.Any) > 0 {
					return nil, invalidf("%s.any[%d]: any-predicates do not nest", ctx, j)
				}
				l, err := compileLeaf(f, alt, fmt.Sprintf("%s.any[%d]", ctx, j))
				if err != nil {
					return nil, err
				}
				g = append(g, l)
			}
			out = append(out, g)
			continue
		}
		l, err := compileLeaf(f, p, ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, orGroup{l})
	}
	return out, nil
}

// compileAgg type-checks one aggregate.
func compileAgg(f *Frame, a Agg, idx int) (aggOp, error) {
	ctx := fmt.Sprintf("aggs[%d]", idx)
	kind, ok := aggNames[a.Op]
	if !ok {
		names := make([]string, 0, len(aggNames))
		for name := range aggNames {
			names = append(names, name)
		}
		sort.Strings(names)
		return aggOp{}, invalidf("%s: unknown aggregate op %q (have %s)", ctx, a.Op, strings.Join(names, ", "))
	}
	if a.As == "" {
		return aggOp{}, invalidf("%s: aggregate needs an output name (\"as\")", ctx)
	}
	op := aggOp{kind: kind, name: a.As}
	var err error
	if op.where, err = compilePreds(f, a.Where, ctx+".where"); err != nil {
		return aggOp{}, err
	}
	switch kind {
	case aCount:
		if a.Num != "" || a.Den != "" {
			return aggOp{}, invalidf("%s: count takes no num/den", ctx)
		}
		if a.Col != "" {
			// count over a column counts its non-null rows.
			if op.col, err = resolveColumn(f, a.Col, ctx); err != nil {
				return aggOp{}, err
			}
		}
		op.out = TInt
	case aRatio:
		if a.Col != "" {
			return aggOp{}, invalidf("%s: ratio takes num and den flag columns, not col", ctx)
		}
		if op.num, err = resolveColumn(f, a.Num, ctx+".num"); err != nil {
			return aggOp{}, err
		}
		if op.den, err = resolveColumn(f, a.Den, ctx+".den"); err != nil {
			return aggOp{}, err
		}
		if op.num.Type != TBool || op.den.Type != TBool {
			return aggOp{}, invalidf("%s: ratio needs bool flag columns (num %q is %s, den %q is %s)",
				ctx, a.Num, op.num.Type, a.Den, op.den.Type)
		}
		op.out = TFloat
	default:
		if a.Num != "" || a.Den != "" {
			return aggOp{}, invalidf("%s: %s takes col, not num/den", ctx, a.Op)
		}
		if op.col, err = resolveColumn(f, a.Col, ctx); err != nil {
			return aggOp{}, err
		}
		switch kind {
		case aFirst:
			op.out = op.col.Type
		case aMean:
			if op.col.Type != TInt && op.col.Type != TFloat {
				return aggOp{}, invalidf("%s: mean needs a numeric column (%q is %s)", ctx, a.Col, op.col.Type)
			}
			op.out = TFloat
		default: // sum, min, max
			if op.col.Type != TInt && op.col.Type != TFloat {
				return aggOp{}, invalidf("%s: %s needs a numeric column (%q is %s)", ctx, a.Op, a.Col, op.col.Type)
			}
			op.out = op.col.Type
		}
	}
	return op, nil
}

// compile validates q against fs and returns an executable plan.
func compile(fs *FrameSet, q *Query) (*plan, error) {
	if q == nil {
		return nil, invalidf("nil query")
	}
	f, ok := fs.Frame(q.Frame)
	if !ok {
		return nil, invalidf("unknown frame %q (have %s)", q.Frame, strings.Join(fs.Names(), ", "))
	}
	switch q.Format {
	case "", FormatJSON, FormatCSV:
	default:
		return nil, invalidf("unknown format %q (have json, csv)", q.Format)
	}
	if q.Limit < 0 {
		return nil, invalidf("negative limit %d", q.Limit)
	}
	p := &plan{f: f, totals: q.Totals, limit: q.Limit, complete: q.Complete}
	var err error
	if p.where, err = compilePreds(f, q.Where, "where"); err != nil {
		return nil, err
	}

	p.grouped = len(q.GroupBy) > 0 || len(q.Aggs) > 0
	if p.grouped && len(q.Select) > 0 {
		return nil, invalidf("group_by/aggs and select are mutually exclusive")
	}
	if !p.grouped && len(q.Select) == 0 {
		return nil, invalidf("query selects nothing: give group_by+aggs or select")
	}

	seen := map[string]bool{}
	claim := func(name, what string) error {
		if seen[name] {
			return invalidf("duplicate output column %q (%s)", name, what)
		}
		seen[name] = true
		return nil
	}

	if p.grouped {
		if len(q.Aggs) == 0 {
			return nil, invalidf("group_by without aggregates")
		}
		for i, k := range q.GroupBy {
			col, err := resolveColumn(f, k.Col, fmt.Sprintf("group_by[%d]", i))
			if err != nil {
				return nil, err
			}
			if col.Type == TFloat {
				return nil, invalidf("group_by[%d]: cannot group by float column %q", i, k.Col)
			}
			if err := claim(k.name(), "group key"); err != nil {
				return nil, err
			}
			p.keys = append(p.keys, keyRef{col: col, name: k.name(), hide: k.Hide})
		}
		for i, a := range q.Aggs {
			op, err := compileAgg(f, a, i)
			if err != nil {
				return nil, err
			}
			if err := claim(op.name, "aggregate"); err != nil {
				return nil, err
			}
			p.aggs = append(p.aggs, op)
		}
	} else {
		for i, k := range q.Select {
			col, err := resolveColumn(f, k.Col, fmt.Sprintf("select[%d]", i))
			if err != nil {
				return nil, err
			}
			if k.Hide {
				return nil, invalidf("select[%d]: hide is meaningless in a projection", i)
			}
			if err := claim(k.name(), "selected column"); err != nil {
				return nil, err
			}
			p.selects = append(p.selects, keyRef{col: col, name: k.name()})
		}
	}

	if p.totals != "" {
		if !p.grouped || len(p.keys) == 0 {
			return nil, invalidf("totals needs a grouped query with at least one key")
		}
		first := -1
		for i, k := range p.keys {
			if !k.hide {
				first = i
				break
			}
		}
		if first < 0 || p.keys[first].col.Type != TStr {
			return nil, invalidf("totals needs a visible string-typed first key to carry the %q label", p.totals)
		}
	}
	if p.complete {
		if !p.grouped || len(p.keys) == 0 {
			return nil, invalidf("complete needs a grouped query with at least one key")
		}
		for i, k := range p.keys {
			if k.col.Type == TInt {
				return nil, invalidf("group_by[%d]: cannot complete over int column %q (no finite domain)", i, k.col.Name)
			}
		}
	}

	if err := compileOrderBy(p, q.OrderBy); err != nil {
		return nil, err
	}
	if q.Compare != nil {
		if p.compare, err = compileCompare(p, q.Compare); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// compileOrderBy resolves sort keys against the unified output row (keys
// then aggregates for grouped queries; selected columns for projections).
func compileOrderBy(p *plan, orders []Order) error {
	for i, o := range orders {
		ctx := fmt.Sprintf("order_by[%d]", i)
		ref := orderRef{desc: o.Desc, appearance: o.Appearance, slot: -1}
		if p.grouped {
			for ki, k := range p.keys {
				if k.name == o.Key {
					ref.slot, ref.kind, ref.isKey = ki, k.col.Type, true
					break
				}
			}
			if ref.slot < 0 {
				for ai, a := range p.aggs {
					if a.name == o.Key {
						ref.slot, ref.kind = len(p.keys)+ai, a.out
						break
					}
				}
			}
		} else {
			for si, s := range p.selects {
				if s.name == o.Key {
					ref.slot, ref.kind, ref.isKey = si, s.col.Type, true
					break
				}
			}
		}
		if ref.slot < 0 {
			return invalidf("%s: unknown sort key %q (sort keys name output columns)", ctx, o.Key)
		}
		if ref.appearance && (!ref.isKey || ref.kind != TStr) {
			return invalidf("%s: appearance order only applies to string group keys", ctx)
		}
		p.orderBy = append(p.orderBy, ref)
	}
	return nil
}

// compileCompare resolves a two-group test against the plan.
func compileCompare(p *plan, c *Compare) (*comparePlan, error) {
	if !p.grouped || len(p.keys) == 0 {
		return nil, invalidf("compare needs a grouped query with at least one key")
	}
	if len(c.Groups) != 2 {
		return nil, invalidf("compare needs exactly two groups (got %d)", len(c.Groups))
	}
	cp := &comparePlan{test: c.Test}
	switch c.Test {
	case "welch":
		col, err := resolveColumn(p.f, c.Col, "compare.col")
		if err != nil {
			return nil, err
		}
		if col.Type != TInt && col.Type != TFloat {
			return nil, invalidf("compare.col: welch needs a numeric column (%q is %s)", c.Col, col.Type)
		}
		cp.col = col
	case "chisq":
		cp.numIdx, cp.denIdx = -1, -1
		for ai, a := range p.aggs {
			if a.name == c.Num {
				cp.numIdx = ai
			}
			if a.name == c.Den {
				cp.denIdx = ai
			}
		}
		if cp.numIdx < 0 || cp.denIdx < 0 {
			return nil, invalidf("compare: num/den must name aggregates (%q, %q)", c.Num, c.Den)
		}
		for _, idx := range []int{cp.numIdx, cp.denIdx} {
			if p.aggs[idx].kind != aCount {
				return nil, invalidf("compare: chisq num/den must be count aggregates (%q is %q)",
					p.aggs[idx].name, aggKindName(p.aggs[idx].kind))
			}
		}
	default:
		return nil, invalidf("compare: unknown test %q (have welch, chisq)", c.Test)
	}
	for gi, vals := range c.Groups {
		if len(vals) != len(p.keys) {
			return nil, invalidf("compare.groups[%d]: %d values for %d group keys", gi, len(vals), len(p.keys))
		}
		tokens := make([]uint64, len(p.keys))
		labels := make([]string, len(p.keys))
		for ki, v := range vals {
			tok, label, ok, err := tokenForValue(p.keys[ki].col, v)
			if err != nil {
				return nil, invalidf("compare.groups[%d][%d]: %v", gi, ki, err)
			}
			if !ok {
				cp.missing[gi] = true
			}
			tokens[ki] = tok
			labels[ki] = label
		}
		cp.tokens[gi] = tokens
		cp.labels[gi] = strings.Join(labels, "|")
		cp.rawSpecs[gi] = vals
	}
	return cp, nil
}

func aggKindName(kind int) string {
	for name, k := range aggNames {
		if k == kind {
			return name
		}
	}
	return "?"
}

// tokenForValue converts a JSON group value to the column's key token.
// ok=false means the value does not occur in the column's dictionary (the
// group cannot match any row).
func tokenForValue(col *Column, v any) (tok uint64, label string, ok bool, err error) {
	switch col.Type {
	case TStr:
		s, isStr := v.(string)
		if !isStr {
			return 0, "", false, fmt.Errorf("column %q needs a string group value", col.Name)
		}
		c, found := col.Dict.Lookup(s)
		return uint64(c) + 1, s, found, nil
	case TBool:
		b, isBool := v.(bool)
		if !isBool {
			return 0, "", false, fmt.Errorf("column %q needs a bool group value", col.Name)
		}
		if b {
			return 2, "true", true, nil
		}
		return 1, "false", true, nil
	case TInt:
		n, isNum := v.(float64)
		if !isNum {
			return 0, "", false, fmt.Errorf("column %q needs a numeric group value", col.Name)
		}
		i, err := toInt64(n)
		if err != nil {
			return 0, "", false, err
		}
		return intToken(i), fmt.Sprintf("%d", i), true, nil
	default:
		return 0, "", false, fmt.Errorf("column %q cannot be a group key", col.Name)
	}
}

// intToken maps an int64 key value to a non-zero token (zero is reserved
// for null).
func intToken(v int64) uint64 { return uint64(v)*2 + 1 }

// floatToken maps a float64 to a non-zero token that keeps cmpValue's
// order: every NaN first (token 1), then numbers ascending, with -0 and +0
// equal. Floats are never group keys, so no token is decoded back; a
// projected float column only needs one per cell.
func floatToken(v float64) uint64 {
	if math.IsNaN(v) {
		return 1
	}
	b := math.Float64bits(v)
	if b == 1<<63 {
		b = 0 // fold -0 into +0
	}
	if b>>63 != 0 {
		return ^b // negatives: larger magnitude, smaller token
	}
	return b | 1<<63
}
