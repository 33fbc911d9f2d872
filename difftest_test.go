// Differential-testing harness: a seeded random query generator drives the
// engine across every strategy × format × worker count × vault mode, and a
// naive in-memory oracle executor independently computes each query's answer
// over the same rows. Results must match the oracle byte for byte (floats by
// bit pattern), which subsumes the hand-written parity cases as the coverage
// backbone: any divergence between access paths — JIT vs generic scans,
// positional-map navigation, shred reuse, morsel-parallel merges, parallel
// hash joins, vault restore — surfaces as an oracle mismatch with a
// reproducible seed.
//
// The oracle mirrors the engine's documented semantics exactly: filters are
// conjunctions evaluated per row in file order; joins emit each probe-side
// match in probe file order with its build-side matches in build file order;
// ungrouped aggregates emit one row (zeroes at COUNT = 0); grouped aggregates
// emit groups in first-encounter order; HAVING filters aggregate rows after
// grouping. Float SUM/AVG are exact at every worker count: the oracle sums in
// math/big and rounds once, which the engine's exact accumulation (serial,
// and parallel hi/lo partial transport) must match bit for bit. The data is
// wide enough to expose the engine's own parsers: besides k/64 dyadics, float
// columns hold arbitrary shortest-round-trip doubles, 17-digit mantissas,
// -0 and subnormals in plain, exponent and 'g' renderings, and integer
// columns hold MinInt64, MaxInt64 and their neighbours.
package raw_test

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rawdb"
	"rawdb/internal/storage/binfile"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/vector"
	"rawdb/internal/workload"
)

// difftestQueries is the per-strategy×format query budget. Every query runs
// against the oracle in every vault mode of the combination.
const difftestQueries = 200

// difftestTrace attaches a fresh Trace to every dataset-mode query when
// RAWDB_DIFF_TRACE=1 (the CI traced pass): results must stay bit-exact
// against the oracle with span instrumentation threaded through every
// operator, proving tracing never perturbs execution.
var difftestTrace = os.Getenv("RAWDB_DIFF_TRACE") == "1"

// dtTable is a randomly generated table: schema plus column-major data.
type dtTable struct {
	cols   []raw.Column
	ints   map[int][]int64
	floats map[int][]float64
	// wide marks the float columns drawn from the second family (wideFloat),
	// which also render in exponent forms (floatText).
	wide  map[int]bool
	group int // small-cardinality BIGINT column for GROUP BY
	nrows int
}

// intExtremes are the int64 extremes and their neighbours.
var intExtremes = []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 2,
	math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64}

// dyadic is a float of the first family: a multiple of 1/64 with bounded
// magnitude.
func dyadic(rng *rand.Rand) float64 { return float64(rng.Int63n(1<<21)-(1<<20)) / 64 }

// wideFloat draws from the second float family: arbitrary finite doubles,
// 17-digit decimal mantissas, -0, subnormals, and dyadics for ties.
func wideFloat(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(6) {
	case 0:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
				return f
			}
		}
	case 1:
		f, err := strconv.ParseFloat(fmt.Sprintf("%d.%016de%d", 1+rng.Intn(9), rng.Int63n(1e16), rng.Intn(61)-30), 64)
		if err != nil {
			panic(err)
		}
		return sign * f
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return sign * math.Float64frombits(uint64(1+rng.Int63n(1<<52-1)))
	}
	return dyadic(rng)
}

// floatText renders value r of float column c. Dyadic columns print plain
// shortest decimals; wide ones cycle through plain, exponent and 'g' shortest
// forms and a 17-significant-digit exponent form, which round-trips too.
func (t *dtTable) floatText(c, r int) string {
	v := t.floats[c][r]
	if !t.wide[c] {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	switch r % 4 {
	case 0:
		return strconv.FormatFloat(v, 'f', -1, 64)
	case 1:
		return strconv.FormatFloat(v, 'e', -1, 64)
	case 2:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strconv.FormatFloat(v, 'e', 16, 64)
}

// genTable builds a random schema (mixed BIGINT/DOUBLE, one low-cardinality
// group column, one nested JSON path) and data. Float columns hold dyadics
// or the wide family; some non-group integer columns mix in the int64
// extremes. Every rendering parses back bit-exactly through every text
// format.
func genTable(rng *rand.Rand, nrows int) *dtTable {
	ncols := 5 + rng.Intn(3)
	t := &dtTable{
		ints:   make(map[int][]int64),
		floats: make(map[int][]float64),
		wide:   make(map[int]bool),
		nrows:  nrows,
	}
	t.group = 1 + rng.Intn(ncols-1)
	nestedDone := false
	for c := 0; c < ncols; c++ {
		name := fmt.Sprintf("col%d", c+1)
		isFloat := c != 0 && c != t.group && rng.Intn(5) < 2
		if isFloat && !nestedDone {
			name = "p.x" // one nested path exercises JSON object navigation
			nestedDone = true
		}
		typ := raw.Int64
		if isFloat {
			typ = raw.Float64
		}
		t.cols = append(t.cols, raw.Column{Name: name, Type: typ})
		t.wide[c] = isFloat && rng.Intn(2) == 0
		extreme := !isFloat && c != t.group && rng.Intn(3) == 0
		for r := 0; r < nrows; r++ {
			switch {
			case t.wide[c]:
				t.floats[c] = append(t.floats[c], wideFloat(rng))
			case isFloat:
				t.floats[c] = append(t.floats[c], dyadic(rng))
			case c == t.group:
				t.ints[c] = append(t.ints[c], rng.Int63n(7))
			case extreme && rng.Intn(3) == 0:
				t.ints[c] = append(t.ints[c], intExtremes[rng.Intn(len(intExtremes))])
			default:
				t.ints[c] = append(t.ints[c], rng.Int63n(2_000_001)-1_000_000)
			}
		}
	}
	return t
}

// sortedCopy is t's rows repeated times over and ordered (stably) by the
// first column, a BIGINT: a table whose filter column is sorted, so zone maps
// exclude the batch ranges past a cut-off.
func (t *dtTable) sortedCopy(times int) *dtTable {
	n := t.nrows * times
	order := make([]int, n)
	for i := range order {
		order[i] = i % t.nrows
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(t.ints[0][a], t.ints[0][b]) })
	s := &dtTable{cols: t.cols, ints: make(map[int][]int64), floats: make(map[int][]float64),
		wide: t.wide, group: t.group, nrows: n}
	for c, v := range t.ints {
		s.ints[c] = make([]int64, n)
		for i, r := range order {
			s.ints[c][i] = v[r]
		}
	}
	for c, v := range t.floats {
		s.floats[c] = make([]float64, n)
		for i, r := range order {
			s.floats[c][i] = v[r]
		}
	}
	return s
}

func (t *dtTable) renderCSV() []byte {
	var b strings.Builder
	for r := 0; r < t.nrows; r++ {
		for c := range t.cols {
			if c > 0 {
				b.WriteByte(',')
			}
			if t.cols[c].Type == raw.Int64 {
				b.WriteString(strconv.FormatInt(t.ints[c][r], 10))
			} else {
				b.WriteString(t.floatText(c, r))
			}
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

func (t *dtTable) renderJSONL() []byte {
	var b strings.Builder
	for r := 0; r < t.nrows; r++ {
		b.WriteByte('{')
		for c := range t.cols {
			if c > 0 {
				b.WriteByte(',')
			}
			name := t.cols[c].Name
			var val string
			if t.cols[c].Type == raw.Int64 {
				val = strconv.FormatInt(t.ints[c][r], 10)
			} else {
				val = t.floatText(c, r)
			}
			if dot := strings.IndexByte(name, '.'); dot >= 0 {
				fmt.Fprintf(&b, "%q:{%q:%s}", name[:dot], name[dot+1:], val)
			} else {
				fmt.Fprintf(&b, "%q:%s", name, val)
			}
		}
		b.WriteString("}\n")
	}
	return []byte(b.String())
}

func (t *dtTable) renderBin(tb testing.TB) []byte {
	var buf strings.Builder
	types := make([]vector.Type, len(t.cols))
	for c, col := range t.cols {
		types[c] = col.Type
	}
	w, err := binfile.NewWriter(&buf, types, int64(t.nrows))
	if err != nil {
		tb.Fatal(err)
	}
	ints := make([]int64, 0, len(t.cols))
	floats := make([]float64, 0, len(t.cols))
	for r := 0; r < t.nrows; r++ {
		ints, floats = ints[:0], floats[:0]
		for c := range t.cols {
			if t.cols[c].Type == raw.Int64 {
				ints = append(ints, t.ints[c][r])
			} else {
				floats = append(floats, t.floats[c][r])
			}
		}
		if err := w.WriteRow(ints, floats); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return []byte(buf.String())
}

// dtTabs pairs the two generated tables: "t" is the larger probe side, "u"
// the smaller build side of generated joins.
type dtTabs struct {
	t, u *dtTable
}

func (ts dtTabs) tab(i int) *dtTable {
	if i == 0 {
		return ts.t
	}
	return ts.u
}

// plainCols returns the column indexes whose names carry no nested JSON
// path. Join queries qualify every reference with a table alias, and a
// qualified nested path ("t.p.x") would be ambiguous between alias and
// object navigation, so they stick to plain names.
func plainCols(t *dtTable) []int {
	var out []int
	for c, col := range t.cols {
		if !strings.ContainsRune(col.Name, '.') {
			out = append(out, c)
		}
	}
	return out
}

// intCols returns the BIGINT column indexes (join-key candidates).
func intCols(t *dtTable) []int {
	var out []int
	for c, col := range t.cols {
		if col.Type == raw.Int64 {
			out = append(out, c)
		}
	}
	return out
}

// --- random queries ---

type dtItem struct {
	agg  string // "", COUNT, MIN, MAX, SUM, AVG
	star bool
	tbl  int // 0 = t, 1 = u (always 0 for single-table queries)
	col  int
}

type dtPred struct {
	tbl int
	col int
	op  string
	i64 int64
	f64 float64
}

// dtHaving is one HAVING condition: an aggregate compared against a literal.
type dtHaving struct {
	item dtItem
	op   string
	i64  int64
	f64  float64
}

type dtQuery struct {
	items      []dtItem
	preds      []dtPred
	join       bool
	tkey, ukey int // join key columns (t.tkey = u.ukey) when join is set
	groupTbl   int
	groupBy    int // -1 for none
	having     []dtHaving
}

var dtOps = []string{"<", "<=", ">", ">=", "=", "<>"}

// itemType is the engine's output type for one select item.
func (ts dtTabs) itemType(it dtItem) raw.Type {
	switch {
	case it.star, it.agg == "COUNT":
		return raw.Int64
	case it.agg == "AVG":
		return raw.Float64
	default:
		return ts.tab(it.tbl).cols[it.col].Type
	}
}

func genPred(rng *rand.Rand, ts dtTabs, tbl int, plainOnly bool) dtPred {
	t := ts.tab(tbl)
	var c int
	if plainOnly {
		cands := plainCols(t)
		c = cands[rng.Intn(len(cands))]
	} else {
		c = rng.Intn(len(t.cols))
	}
	p := dtPred{tbl: tbl, col: c, op: dtOps[rng.Intn(len(dtOps))]}
	r := rng.Intn(t.nrows)
	switch {
	case t.cols[c].Type == raw.Int64:
		p.i64 = t.ints[c][r] + rng.Int63n(3) - 1
	case rng.Intn(4) == 0: // a signed zero: '=', '<' and '<=' meet ±0
		p.f64 = math.Copysign(0, float64(1-2*rng.Intn(2)))
	case rng.Intn(3) == 0 && t.wide[c]:
		p.f64 = wideFloat(rng)
	case rng.Intn(3) == 0:
		p.f64 = dyadic(rng)
	default:
		p.f64 = t.floats[c][r] // exact data value: '=' can match
	}
	return p
}

func genAggItem(rng *rand.Rand, ts dtTabs, join bool) dtItem {
	tbl := 0
	if join && rng.Intn(2) == 1 {
		tbl = 1
	}
	t := ts.tab(tbl)
	pick := func() int {
		if join {
			cands := plainCols(t)
			return cands[rng.Intn(len(cands))]
		}
		return rng.Intn(len(t.cols))
	}
	switch rng.Intn(6) {
	case 0:
		return dtItem{agg: "COUNT", star: true}
	case 1:
		return dtItem{agg: "MIN", tbl: tbl, col: pick()}
	case 2:
		return dtItem{agg: "MAX", tbl: tbl, col: pick()}
	case 3:
		return dtItem{agg: "SUM", tbl: tbl, col: pick()}
	case 4:
		return dtItem{agg: "AVG", tbl: tbl, col: pick()}
	default:
		return dtItem{agg: "COUNT", tbl: tbl, col: pick()}
	}
}

// genHaving builds one HAVING condition. The literal's spelling follows the
// aggregate's OUTPUT type: integer-valued aggregates get integer literals
// (the engine compares them on the BIGINT field, truncating a float literal,
// which the oracle would then have to mimic), float-valued ones get exact
// 1/64-multiple literals so '=' can genuinely hit.
func genHaving(rng *rand.Rand, ts dtTabs, join bool) dtHaving {
	it := genAggItem(rng, ts, join)
	h := dtHaving{item: it, op: dtOps[rng.Intn(len(dtOps))]}
	if ts.itemType(it) == raw.Int64 {
		if it.agg == "COUNT" {
			h.i64 = rng.Int63n(12)
		} else {
			h.i64 = rng.Int63n(2_000_001) - 1_000_000
		}
		h.f64 = float64(h.i64)
	} else {
		h.f64 = dyadic(rng)
		h.i64 = int64(h.f64)
	}
	return h
}

func genQuery(rng *rand.Rand, ts dtTabs) dtQuery {
	q := dtQuery{groupBy: -1}
	q.join = rng.Intn(3) == 0
	if q.join {
		if rng.Intn(2) == 0 {
			// Group column against group column: cardinality 7 on both
			// sides guarantees fan-out through every hash partition.
			q.tkey, q.ukey = ts.t.group, ts.u.group
		} else {
			tc, uc := intCols(ts.t), intCols(ts.u)
			q.tkey = tc[rng.Intn(len(tc))]
			q.ukey = uc[rng.Intn(len(uc))]
		}
	}
	side := func() int {
		if q.join {
			return rng.Intn(2)
		}
		return 0
	}
	for n := rng.Intn(3); n > 0; n-- {
		q.preds = append(q.preds, genPred(rng, ts, side(), q.join))
	}
	switch kind := rng.Intn(5); kind {
	case 0: // plain projection
		for n := 1 + rng.Intn(3); n > 0; n-- {
			tbl := side()
			t := ts.tab(tbl)
			var c int
			if q.join {
				cands := plainCols(t)
				c = cands[rng.Intn(len(cands))]
			} else {
				c = rng.Intn(len(t.cols))
			}
			q.items = append(q.items, dtItem{tbl: tbl, col: c})
		}
		if len(q.preds) == 0 { // keep projected row counts modest
			q.preds = append(q.preds, genPred(rng, ts, side(), q.join))
		}
	case 1: // grouped aggregate, sometimes with HAVING
		q.groupTbl = side()
		q.groupBy = ts.tab(q.groupTbl).group
		if rng.Intn(2) == 0 {
			q.items = append(q.items, dtItem{tbl: q.groupTbl, col: q.groupBy})
		}
		for n := 1 + rng.Intn(2); n > 0; n-- {
			q.items = append(q.items, genAggItem(rng, ts, q.join))
		}
		if rng.Intn(2) == 0 {
			q.having = append(q.having, genHaving(rng, ts, q.join))
		}
	case 2: // bare GROUP BY: distinct keys, no aggregate items
		q.groupTbl = side()
		q.groupBy = ts.tab(q.groupTbl).group
		q.items = append(q.items, dtItem{tbl: q.groupTbl, col: q.groupBy})
	default: // ungrouped aggregate, occasionally with HAVING
		for n := 1 + rng.Intn(3); n > 0; n-- {
			q.items = append(q.items, genAggItem(rng, ts, q.join))
		}
		if rng.Intn(4) == 0 {
			q.having = append(q.having, genHaving(rng, ts, q.join))
		}
	}
	return q
}

func (q dtQuery) SQL(ts dtTabs) string {
	alias := [2]string{"t", "u"}
	name := func(tbl, col int) string {
		n := ts.tab(tbl).cols[col].Name
		if q.join {
			return alias[tbl] + "." + n
		}
		return n
	}
	item := func(b *strings.Builder, it dtItem) {
		switch {
		case it.star:
			b.WriteString("COUNT(*)")
		case it.agg != "":
			fmt.Fprintf(b, "%s(%s)", it.agg, name(it.tbl, it.col))
		default:
			b.WriteString(name(it.tbl, it.col))
		}
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range q.items {
		if i > 0 {
			b.WriteString(", ")
		}
		item(&b, it)
	}
	b.WriteString(" FROM t")
	if q.join {
		b.WriteString(", u")
	}
	first := true
	cond := func() {
		if first {
			b.WriteString(" WHERE ")
			first = false
		} else {
			b.WriteString(" AND ")
		}
	}
	if q.join {
		cond()
		fmt.Fprintf(&b, "t.%s = u.%s", ts.t.cols[q.tkey].Name, ts.u.cols[q.ukey].Name)
	}
	for _, p := range q.preds {
		cond()
		if ts.tab(p.tbl).cols[p.col].Type == raw.Int64 {
			fmt.Fprintf(&b, "%s %s %d", name(p.tbl, p.col), p.op, p.i64)
		} else {
			// 'g' spells every value from 1e21 up with an exponent, so no
			// literal reads as an out-of-range integer.
			fmt.Fprintf(&b, "%s %s %s", name(p.tbl, p.col), p.op,
				strconv.FormatFloat(p.f64, 'g', -1, 64))
		}
	}
	if q.groupBy >= 0 {
		fmt.Fprintf(&b, " GROUP BY %s", name(q.groupTbl, q.groupBy))
	}
	for _, h := range q.having {
		b.WriteString(" HAVING ")
		item(&b, h.item)
		if ts.itemType(h.item) == raw.Int64 {
			fmt.Fprintf(&b, " %s %d", h.op, h.i64)
		} else {
			fmt.Fprintf(&b, " %s %s", h.op, strconv.FormatFloat(h.f64, 'f', -1, 64))
		}
	}
	return b.String()
}

// --- the oracle ---

type oracleCell struct {
	i int64
	f float64
}

// dtPair addresses one logical row: an index into t plus, for joins, an
// index into u (-1 otherwise).
type dtPair struct {
	t, u int
}

func cmpOK(cmp int, op string) bool {
	switch op {
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	case "=":
		return cmp == 0
	case "<>":
		return cmp != 0
	}
	return false
}

// oracle evaluates a query naively: filter in file order, join as a
// file-order nested loop (probe rows outer, build matches in build file
// order — the hash join's emission order), aggregate in file order, groups
// in first-encounter order, HAVING applied to the finished aggregate rows.
// Returns row-major cells plus the output type per item.
func oracle(ts dtTabs, q dtQuery) (rows [][]oracleCell, types []raw.Type) {
	for _, it := range q.items {
		types = append(types, ts.itemType(it))
	}

	match := func(tbl, r int) bool {
		t := ts.tab(tbl)
		for _, p := range q.preds {
			if p.tbl != tbl {
				continue
			}
			var cmp int
			if t.cols[p.col].Type == raw.Int64 {
				v := t.ints[p.col][r]
				switch {
				case v < p.i64:
					cmp = -1
				case v > p.i64:
					cmp = 1
				}
			} else {
				v := t.floats[p.col][r]
				switch {
				case v < p.f64:
					cmp = -1
				case v > p.f64:
					cmp = 1
				}
			}
			if !cmpOK(cmp, p.op) {
				return false
			}
		}
		return true
	}

	var selected []dtPair
	if q.join {
		var urows []int
		for r := 0; r < ts.u.nrows; r++ {
			if match(1, r) {
				urows = append(urows, r)
			}
		}
		for r := 0; r < ts.t.nrows; r++ {
			if !match(0, r) {
				continue
			}
			k := ts.t.ints[q.tkey][r]
			for _, s := range urows {
				if ts.u.ints[q.ukey][s] == k {
					selected = append(selected, dtPair{t: r, u: s})
				}
			}
		}
	} else {
		for r := 0; r < ts.t.nrows; r++ {
			if match(0, r) {
				selected = append(selected, dtPair{t: r, u: -1})
			}
		}
	}

	rowOf := func(tbl int, p dtPair) int {
		if tbl == 0 {
			return p.t
		}
		return p.u
	}

	hasAgg := len(q.having) > 0
	for _, it := range q.items {
		if it.agg != "" {
			hasAgg = true
		}
	}
	if !hasAgg && q.groupBy < 0 {
		for _, p := range selected {
			var row []oracleCell
			for _, it := range q.items {
				t, r := ts.tab(it.tbl), rowOf(it.tbl, p)
				if t.cols[it.col].Type == raw.Int64 {
					row = append(row, oracleCell{i: t.ints[it.col][r]})
				} else {
					row = append(row, oracleCell{f: t.floats[it.col][r]})
				}
			}
			rows = append(rows, row)
		}
		return rows, types
	}

	// aggState mirrors the engine's per-spec accumulator. A float SUM/AVG
	// is exact: a 2200-bit big.Float holds any sum of a few thousand doubles
	// without rounding, and exactSum rounds it once.
	type aggState struct {
		count int64
		i     int64
		f     float64
		sum   *big.Float
	}
	exactSum := func(st aggState) float64 {
		if st.sum == nil {
			return 0
		}
		f, _ := st.sum.Float64()
		return f
	}
	update := func(st *aggState, it dtItem, p dtPair) {
		if it.agg == "COUNT" { // counts rows regardless of column (no NULLs)
			st.count++
			return
		}
		t, r := ts.tab(it.tbl), rowOf(it.tbl, p)
		if t.cols[it.col].Type == raw.Int64 {
			v := t.ints[it.col][r]
			switch it.agg {
			case "MIN":
				if st.count == 0 || v < st.i {
					st.i = v
				}
			case "MAX":
				if st.count == 0 || v > st.i {
					st.i = v
				}
			case "SUM", "AVG":
				if st.count == 0 {
					st.i = 0
				}
				st.i += v
			}
		} else {
			// NaN sorts above every number: MIN skips it unless every value
			// is NaN, MAX is NaN if any value is.
			v, nan := t.floats[it.col][r], math.IsNaN(st.f)
			switch it.agg {
			case "MIN":
				if st.count == 0 || v < st.f || nan && !math.IsNaN(v) {
					st.f = v
				}
			case "MAX":
				if st.count == 0 || v > st.f || !nan && math.IsNaN(v) {
					st.f = v
				}
			case "SUM", "AVG":
				if st.sum == nil {
					st.sum = new(big.Float).SetPrec(2200)
				}
				st.sum.Add(st.sum, new(big.Float).SetFloat64(v))
			}
		}
		st.count++
	}
	emit := func(st aggState, it dtItem) oracleCell {
		switch {
		case it.agg == "COUNT":
			return oracleCell{i: st.count}
		case it.agg == "AVG":
			sum := exactSum(st)
			if ts.tab(it.tbl).cols[it.col].Type == raw.Int64 {
				sum = float64(st.i)
			}
			if st.count == 0 {
				return oracleCell{f: 0}
			}
			return oracleCell{f: sum / float64(st.count)}
		case ts.tab(it.tbl).cols[it.col].Type == raw.Int64:
			if st.count == 0 {
				return oracleCell{i: 0}
			}
			return oracleCell{i: st.i}
		case it.agg == "SUM":
			return oracleCell{f: exactSum(st)}
		default:
			if st.count == 0 {
				return oracleCell{f: 0}
			}
			return oracleCell{f: st.f}
		}
	}

	// HAVING conditions accumulate as shadow items appended after the
	// select list; the engine's aggregate does the same (the HAVING spec
	// joins the spec list, deduplicated against identical select specs —
	// either way the values coincide).
	allItems := make([]dtItem, 0, len(q.items)+len(q.having))
	allItems = append(allItems, q.items...)
	for _, h := range q.having {
		allItems = append(allItems, h.item)
	}
	passHaving := func(states []aggState) bool {
		for hi, h := range q.having {
			cell := emit(states[len(q.items)+hi], h.item)
			var cmp int
			if ts.itemType(h.item) == raw.Int64 {
				switch {
				case cell.i < h.i64:
					cmp = -1
				case cell.i > h.i64:
					cmp = 1
				}
			} else {
				switch {
				case cell.f < h.f64:
					cmp = -1
				case cell.f > h.f64:
					cmp = 1
				}
			}
			if !cmpOK(cmp, h.op) {
				return false
			}
		}
		return true
	}

	if q.groupBy < 0 {
		states := make([]aggState, len(allItems))
		for _, p := range selected {
			for i, it := range allItems {
				update(&states[i], it, p)
			}
		}
		if !passHaving(states) {
			return nil, types
		}
		row := make([]oracleCell, len(q.items))
		for i, it := range q.items {
			row[i] = emit(states[i], it)
		}
		return [][]oracleCell{row}, types
	}

	// Grouped: first-encounter order over the filtered (joined) rows.
	slot := make(map[int64]int)
	var keys []int64
	var states [][]aggState
	gt := ts.tab(q.groupTbl)
	for _, p := range selected {
		k := gt.ints[q.groupBy][rowOf(q.groupTbl, p)]
		s, ok := slot[k]
		if !ok {
			s = len(keys)
			slot[k] = s
			keys = append(keys, k)
			states = append(states, make([]aggState, len(allItems)))
		}
		for i, it := range allItems {
			if it.agg != "" {
				update(&states[s][i], it, p)
			}
		}
	}
	for s, k := range keys {
		if !passHaving(states[s]) {
			continue
		}
		row := make([]oracleCell, len(q.items))
		for i, it := range q.items {
			if it.agg == "" {
				row[i] = oracleCell{i: k} // bare group column
			} else {
				row[i] = emit(states[s][i], it)
			}
		}
		rows = append(rows, row)
	}
	return rows, types
}

// checkOracle compares an engine result against the oracle bit for bit.
func checkOracle(t *testing.T, label, sql string, res *raw.Result, want [][]oracleCell, types []raw.Type) {
	t.Helper()
	if res.NumRows() != len(want) || len(res.Columns) != len(types) {
		t.Fatalf("%s: %q: shape %dx%d, oracle %dx%d",
			label, sql, res.NumRows(), len(res.Columns), len(want), len(types))
	}
	for c, typ := range types {
		if res.Types[c] != typ {
			t.Fatalf("%s: %q: column %d type %v, oracle %v", label, sql, c, res.Types[c], typ)
		}
	}
	for r := range want {
		for c := range types {
			if types[c] == raw.Float64 {
				g, w := res.Float64(r, c), want[r][c].f
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: %q: cell (%d,%d) = %v (bits %x), oracle %v (bits %x)",
						label, sql, r, c, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			} else if g := res.Int64(r, c); g != want[r][c].i {
				t.Fatalf("%s: %q: cell (%d,%d) = %d, oracle %d", label, sql, r, c, g, want[r][c].i)
			}
		}
	}
}

// auditBudget checks the cache budget's conservation identity after a query,
// failed ones included: the budget charges exactly the bytes and entries of
// the structures in the table slots and the shred pool, and the registry's
// gauges add up to its bytes.
func auditBudget(t *testing.T, label string, eng *raw.Engine) {
	t.Helper()
	if err := eng.Internal().AuditBudget(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	snap := eng.Metrics().Snapshot()
	held := snap["posmap.bytes"] + snap["jsonidx.bytes"] + snap["synopsis.bytes"] + snap["shred.pool.bytes"]
	if snap["budget.bytes"] != held {
		t.Fatalf("%s: budget.bytes=%d, posmap+jsonidx+synopsis+shred.pool bytes=%d",
			label, snap["budget.bytes"], held)
	}
}

// render is the table's image in format.
func (t *dtTable) render(tb testing.TB, format string) []byte {
	switch format {
	case "csv":
		return t.renderCSV()
	case "json":
		return t.renderJSONL()
	case "bin":
		return t.renderBin(tb)
	}
	return t.renderRoot(tb, format != "root")
}

// renderRoot writes the table as tree "t" of a ROOT-like file, in baskets of
// 64 entries, compressed or not.
func (t *dtTable) renderRoot(tb testing.TB, compress bool) []byte {
	var buf strings.Builder
	w := rootfile.NewWriter(&buf, rootfile.Options{BasketEntries: 64, Compress: compress})
	tw := w.Tree("t")
	for c, col := range t.cols {
		br := tw.Branch(col.Name, col.Type)
		if col.Type == raw.Int64 {
			for _, v := range t.ints[c] {
				br.AppendInt64(v)
			}
		} else {
			for _, v := range t.floats[c] {
				br.AppendFloat64(v)
			}
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return []byte(buf.String())
}

// dtRootDirs holds one directory per test for the ROOT files it registers.
var dtRootDirs sync.Map // *testing.T -> string

// registerDT registers one generated table under one format from its image.
// A ROOT image ("root", compressed "root-z") is written once per test to a
// file named after its bytes, and registered by path: every engine of the
// test, restarted ones included, maps the same file; "root-z-mem" registers
// the compressed image itself.
func registerDT(t *testing.T, e *raw.Engine, name string, tab *dtTable, format string, img []byte) {
	t.Helper()
	var err error
	switch format {
	case "csv":
		err = e.RegisterCSVData(name, img, tab.cols)
	case "json":
		err = e.RegisterJSONData(name, img, tab.cols)
	case "bin":
		err = e.RegisterBinaryData(name, img, tab.cols)
	case "root-z-mem":
		err = e.RegisterRootData(name, img, "t", tab.cols)
	case "root", "root-z":
		dir, _ := dtRootDirs.LoadOrStore(t, t.TempDir())
		h := fnv.New64a()
		h.Write(img)
		path := filepath.Join(dir.(string), fmt.Sprintf("%016x.root", h.Sum64()))
		if _, err = os.Stat(path); err != nil {
			err = os.WriteFile(path, img, 0o644)
		}
		if err == nil {
			err = e.RegisterRoot(name, path, "t", tab.cols)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialDataset is the "dataset" harness mode: the same rows
// registered as one file and as 1/4/16-partition datasets (including a
// mixed CSV/JSONL split) must answer every random query bit-exactly like the
// oracle, at workers 1/2/8, with a vault enabled from cold and again after a
// process "restart" served from manifest.rawv and the per-partition vault
// namespaces. A second two-partition dataset "u" joins the big one in the
// generated join queries.
func TestDifferentialDataset(t *testing.T) {
	splits := []struct {
		name  string
		parts int
		mixed bool
	}{
		{"single", 1, false},
		{"parts4", 4, false},
		{"parts16", 16, false},
		{"mixed4", 4, true},
	}
	for si, s := range splits {
		t.Run(s.name, func(t *testing.T) {
			seed := int64(7000 + si)
			rng := rand.New(rand.NewSource(seed))
			tab := genTable(rng, 160)
			utab := genTable(rng, 40)
			ts := dtTabs{t: tab, u: utab}
			csv, jsonl := tab.renderCSV(), tab.renderJSONL()
			cchunks := workload.SplitRows(csv, s.parts)
			jchunks := workload.SplitRows(jsonl, s.parts)
			var parts []raw.DatasetPart
			for i := range cchunks {
				p := raw.DatasetPart{Format: raw.FormatCSV, Data: cchunks[i]}
				if s.mixed && i%2 == 1 {
					p = raw.DatasetPart{Format: raw.FormatJSON, Data: jchunks[i]}
				}
				parts = append(parts, p)
			}
			var uparts []raw.DatasetPart
			for _, chunk := range workload.SplitRows(utab.renderCSV(), 2) {
				uparts = append(uparts, raw.DatasetPart{Format: raw.FormatCSV, Data: chunk})
			}

			queries := make([]dtQuery, difftestQueries/2)
			for i := range queries {
				queries[i] = genQuery(rng, ts)
			}
			workerCycle := []int{1, 2, 8}
			run := func(name string, eng *raw.Engine) {
				t.Helper()
				for qi, q := range queries {
					sql := q.SQL(ts)
					w := workerCycle[qi%len(workerCycle)]
					var tr *raw.Trace
					if difftestTrace {
						tr = raw.NewTrace()
					}
					res, err := eng.QueryOpt(sql, raw.Options{Parallelism: &w, Trace: tr})
					if err != nil {
						t.Fatalf("%s (seed %d) query %d %q: %v", name, seed, qi, sql, err)
					}
					want, types := oracle(ts, q)
					label := fmt.Sprintf("%s (seed %d) query %d workers %d", name, seed, qi, w)
					checkOracle(t, label, sql, res, want, types)
					auditBudget(t, label, eng)
				}
			}
			register := func(eng *raw.Engine) {
				t.Helper()
				if err := eng.RegisterDatasetParts("t", parts, tab.cols); err != nil {
					t.Fatal(err)
				}
				if err := eng.RegisterDatasetParts("u", uparts, utab.cols); err != nil {
					t.Fatal(err)
				}
			}

			plain := raw.NewEngine(raw.Config{})
			register(plain)
			run("vault-off", plain)

			dir := t.TempDir()
			cold := raw.NewEngine(raw.Config{CacheDir: dir})
			register(cold)
			run("vault-cold", cold)
			cold.Close()

			restarted := raw.NewEngine(raw.Config{CacheDir: dir})
			register(restarted)
			run("vault-restart", restarted)
			restarted.Close()
		})
	}
}

// fillLadder runs one filter at rising literals over name, a table holding
// ts.t that no random query reads, one worker, and checks every rung against
// the oracle. The first rung caches the filter column whole (and builds the
// positional structure and zone map), the second a partial shred of the
// summed column, and every later rung needs rows that shred lacks, so a
// shred-caching engine completes it from the raw file.
func fillLadder(t *testing.T, label string, eng *raw.Engine, name string, ts dtTabs) {
	t.Helper()
	keys := slices.Sorted(slices.Values(ts.t.ints[0]))
	one := 1
	for i, frac := range []float64{1, 0.2, 0.5, 0.8, 1} {
		q := dtQuery{groupBy: -1, items: []dtItem{{agg: "SUM", col: len(ts.t.cols) - 1}},
			preds: []dtPred{{col: 0, op: "<=", i64: keys[int(frac*float64(len(keys)-1))]}}}
		if i == 0 {
			q.items = []dtItem{{agg: "COUNT", star: true}}
		}
		sql := strings.Replace(q.SQL(ts), " FROM t", " FROM "+name, 1)
		res, err := eng.QueryOpt(sql, raw.Options{Parallelism: &one})
		if err != nil {
			t.Fatalf("%s %s ladder rung %d %q: %v", label, name, i, sql, err)
		}
		want, types := oracle(ts, q)
		rung := fmt.Sprintf("%s %s ladder rung %d", label, name, i)
		checkOracle(t, rung, sql, res, want, types)
		auditBudget(t, rung, eng)
	}
}

// TestDifferentialOracle is the coverage backbone: difftestQueries random
// queries per strategy × format — joins, GROUP BY, HAVING and float
// SUM/AVG included — each executed at workers 1/2/8 (cycling) and, for the
// cache-building strategies, in three vault modes: vault off, vault enabled
// from a cold directory, and a restarted engine loading the populated
// directory — all compared against the oracle. The shreds strategy also runs
// with its cascade knobs set (multi-column late scans, join placement).
func TestDifferentialOracle(t *testing.T) {
	strategies := []struct {
		name  string
		strat raw.Strategy
		vault bool // strategy builds persistent structures worth vault modes
	}{
		{"shreds", raw.StrategyShreds, true},
		{"jit", raw.StrategyJIT, true},
		{"insitu", raw.StrategyInSitu, true},
		{"external", raw.StrategyExternal, false},
		{"dbms", raw.StrategyDBMS, false},
	}
	workerCycle := []int{1, 2, 8}
	for si, s := range strategies {
		for fi, format := range []string{"csv", "json", "bin", "root", "root-z", "root-z-mem"} {
			if s.strat == raw.StrategyExternal && format != "csv" {
				continue
			}
			t.Run(s.name+"/"+format, func(t *testing.T) {
				seed := int64(1000 + 100*si + fi)
				rng := rand.New(rand.NewSource(seed))
				tab := genTable(rng, 150)
				utab := genTable(rng, 40)
				ts := dtTabs{t: tab, u: utab}
				img, uimg := tab.render(t, format), utab.render(t, format)
				// "s" is t sorted on its filter column, each row 40 times: more
				// rows than one zone-map block (4096), so blocks past the
				// ladder's cut-offs are excluded.
				stab := tab.sortedCopy(40)
				sts := dtTabs{t: stab, u: utab}
				simg := stab.render(t, format)

				queries := make([]dtQuery, difftestQueries)
				for i := range queries {
					queries[i] = genQuery(rng, ts)
				}

				type mode struct {
					name string
					eng  *raw.Engine
				}
				modes := []mode{{"vault-off", raw.NewEngine(raw.Config{Strategy: s.strat})}}
				// Pushdown and zone maps forced off (they are on by default, so
				// the other modes exercise them wherever a scan can absorb
				// predicates): any divergence between in-scan pruning and the
				// Filter-above plan shape surfaces as an oracle mismatch.
				modes = append(modes, mode{"nopush", raw.NewEngine(raw.Config{
					Strategy: s.strat, DisablePushdown: true, DisableZoneMaps: true})})
				// And the opposite extreme: shred capture disabled, so every
				// eligible scan absorbs its predicates and consults zone maps
				// (capture otherwise wins the capture-vs-pruning conflict).
				modes = append(modes, mode{"push-nocache", raw.NewEngine(raw.Config{
					Strategy: s.strat, DisableShredCache: true})})
				shreds := s.strat == raw.StrategyShreds
				if shreds {
					// The shred cascade's knobs, off by default: one late scan
					// for all late columns with join-projected columns created
					// before the join, and every column created at the base
					// scan of a join side.
					modes = append(modes,
						mode{"multi-intermediate", raw.NewEngine(raw.Config{Strategy: s.strat,
							MultiColumnShreds: true, JoinPlacement: raw.PlaceIntermediate})},
						mode{"early", raw.NewEngine(raw.Config{Strategy: s.strat, JoinPlacement: raw.PlaceEarly})})
				}
				var dir string
				var vaultEng *raw.Engine
				if s.vault {
					dir = t.TempDir()
					vaultEng = raw.NewEngine(raw.Config{Strategy: s.strat, CacheDir: dir})
					modes = append(modes, mode{"vault-cold", vaultEng})
				}
				register := func(eng *raw.Engine) {
					registerDT(t, eng, "t", tab, format, img)
					registerDT(t, eng, "u", utab, format, uimg)
					if shreds {
						registerDT(t, eng, "l", tab, format, img)
						registerDT(t, eng, "s", stab, format, simg)
					}
				}
				// fills runs the ladder over l and requires the engine to have
				// completed a partial shred from the raw file by then; then
				// over s, where an engine with zone maps on must skip ranges
				// of the sorted filter column.
				fills := func(name string, eng *raw.Engine, zoned bool) {
					fillLadder(t, name, eng, "l", ts)
					if eng.Metrics().Snapshot()["shred.fill.rows"] == 0 {
						t.Fatalf("%s (seed %d): no late scan completed a partial shred from the raw file", name, seed)
					}
					exclusions := func() int64 { return eng.Metrics().Snapshot()["synopsis.exclusions"] }
					before := exclusions()
					fillLadder(t, name, eng, "s", sts)
					if zoned && exclusions() == before {
						t.Fatalf("%s (seed %d): no zone map excluded a range of the sorted table", name, seed)
					}
				}
				for _, m := range modes {
					register(m.eng)
				}
				run := func(m mode) {
					for qi, q := range queries {
						sql := q.SQL(ts)
						ws := []int{workerCycle[qi%len(workerCycle)]}
						if format != "root" && strings.HasPrefix(format, "root") {
							// Compressed ROOT: each query at workers 1 and 4,
							// the first run cold on its columns, the second
							// warm, in alternating order.
							ws = [][]int{{1, 4}, {4, 1}}[qi%2]
						}
						for _, w := range ws {
							res, err := m.eng.QueryOpt(sql, raw.Options{Parallelism: &w})
							if err != nil {
								t.Fatalf("%s (seed %d) query %d %q: %v", m.name, seed, qi, sql, err)
							}
							want, types := oracle(ts, q)
							label := fmt.Sprintf("%s (seed %d) query %d workers %d", m.name, seed, qi, w)
							checkOracle(t, label, sql, res, want, types)
							auditBudget(t, label, m.eng)
						}
					}
				}
				for _, m := range modes {
					run(m)
					if shreds && m.name != "push-nocache" {
						fills(m.name, m.eng, m.name != "nopush")
					}
				}
				if s.vault {
					// Flush the populated vault and "restart" into it: the
					// same suite must pass starting from vault-loaded
					// structures (positional maps, indexes, shreds, synopses).
					vaultEng.Close()
					restarted := mode{"vault-restart",
						raw.NewEngine(raw.Config{Strategy: s.strat, CacheDir: dir})}
					register(restarted.eng)
					run(restarted)
					if shreds {
						fills(restarted.name, restarted.eng, true)
					}
					restarted.eng.Close()
				}
			})
		}
	}
}
