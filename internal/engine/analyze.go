package engine

import (
	"errors"
	"fmt"
	"strings"

	"rawdb/internal/exec"
	"rawdb/internal/sql"
	"rawdb/internal/vector"
)

// errAmbiguousColumn distinguishes "found in several tables" from "found
// nowhere" so the dotted-path fallback can surface the real problem.
var errAmbiguousColumn = errors.New("ambiguous column")

// resolvedQuery is the analyzed form of a parsed query: every reference
// bound to (table index, column index), predicates classified into local
// filters and the join condition.
type resolvedQuery struct {
	tables []*boundTable
	// filters[t] are the local conjuncts on table t.
	filters [][]boundPred
	join    *boundJoin
	items   []boundItem
	groupBy []boundRef
	having  []boundHaving
	// filterCols and outputCols are neededColumns' answer, worked out once
	// for every planning step that asks.
	filterCols, outputCols [][]int
}

type boundTable struct {
	alias string
	st    *tableState
	// pos is the positional structure as the plan being built sees it
	// (planCtx.decide takes the snapshot).
	pos positions
}

type boundRef struct {
	table, col int
}

type boundPred struct {
	col int // column within its table
	op  exec.CmpOp
	i64 int64
	f64 float64
}

type boundJoin struct {
	// leftTable is always 0, rightTable 1 after normalisation.
	leftCol, rightCol int
}

type boundItem struct {
	agg   exec.AggFunc
	isAgg bool
	star  bool
	ref   boundRef
	name  string // output column name
}

// boundHaving is an analyzed HAVING conjunct: an aggregate (which may or may
// not also be selected) compared with a literal.
type boundHaving struct {
	item boundItem
	op   exec.CmpOp
	i64  int64
	f64  float64
}

// analyze binds a parsed query against the catalog.
func (e *Engine) analyze(q *sql.Query) (*resolvedQuery, error) {
	r := &resolvedQuery{}
	seen := make(map[string]int)
	for _, tr := range q.Tables {
		st, err := e.state(tr.Name)
		if err != nil {
			return nil, err
		}
		if _, dup := seen[tr.Alias]; dup {
			return nil, fmt.Errorf("engine: duplicate table alias %q", tr.Alias)
		}
		seen[tr.Alias] = len(r.tables)
		r.tables = append(r.tables, &boundTable{alias: tr.Alias, st: st})
	}
	r.filters = make([][]boundPred, len(r.tables))

	// searchColumn finds an unqualified column name across all tables.
	searchColumn := func(name string) (boundRef, error) {
		found := boundRef{-1, -1}
		for ti, bt := range r.tables {
			if ci := bt.st.tab.ColumnIndex(name); ci >= 0 {
				if found.table >= 0 {
					return boundRef{}, fmt.Errorf("engine: %w %q", errAmbiguousColumn, name)
				}
				found = boundRef{ti, ci}
			}
		}
		if found.table < 0 {
			return boundRef{}, fmt.Errorf("engine: unknown column %q", name)
		}
		return found, nil
	}

	resolveRef := func(ref sql.Ref) (boundRef, error) {
		if ref.Table != "" {
			ti, ok := seen[ref.Table]
			if !ok {
				// Not a table alias: a dotted reference like "payload.energy"
				// may name a nested JSON path; the whole dotted spelling is
				// the column name then.
				br, err := searchColumn(ref.Table + "." + ref.Column)
				if err == nil {
					return br, nil
				}
				if errors.Is(err, errAmbiguousColumn) {
					return boundRef{}, err
				}
				return boundRef{}, fmt.Errorf("engine: unknown column %q (and no table alias %q)",
					ref.Table+"."+ref.Column, ref.Table)
			}
			ci := r.tables[ti].st.tab.ColumnIndex(ref.Column)
			if ci < 0 {
				return boundRef{}, fmt.Errorf("engine: unknown column %q in table %q", ref.Column, ref.Table)
			}
			return boundRef{ti, ci}, nil
		}
		return searchColumn(ref.Column)
	}

	for _, p := range q.Preds {
		left, err := resolveRef(p.Left)
		if err != nil {
			return nil, err
		}
		if p.IsJoin() {
			right, err := resolveRef(*p.Right)
			if err != nil {
				return nil, err
			}
			if left.table == right.table {
				return nil, fmt.Errorf("engine: join condition must reference two tables")
			}
			if r.join != nil {
				return nil, fmt.Errorf("engine: at most one join condition is supported")
			}
			// Normalise: left side of the join is table 0 (probe/pipelined).
			if left.table == 0 {
				r.join = &boundJoin{leftCol: left.col, rightCol: right.col}
			} else {
				r.join = &boundJoin{leftCol: right.col, rightCol: left.col}
			}
			lt := r.tables[0].st.tab.Schema[r.join.leftCol].Type
			rt := r.tables[1].st.tab.Schema[r.join.rightCol].Type
			if lt != vector.Int64 || rt != vector.Int64 {
				return nil, fmt.Errorf("engine: join keys must be BIGINT")
			}
			continue
		}
		op, err := cmpOpOf(p.Op)
		if err != nil {
			return nil, err
		}
		bp := boundPred{col: left.col, op: op}
		ct := r.tables[left.table].st.tab.Schema[left.col].Type
		// Literal binding is normalised here, once: every consumer — Filter
		// operators, pushed-down scan predicates, zone-map exclusion tests,
		// ROOT basket pruning — reads the field matching the COLUMN type, and
		// both fields carry consistent values so a mismatched read cannot
		// silently compare against a zero. In particular an integer literal
		// against a DOUBLE column is widened exactly once, right here:
		// "WHERE fcol > 5" and "WHERE fcol > 5.0" bind identically.
		switch ct {
		case vector.Int64:
			if p.Lit.IsFloat {
				return nil, fmt.Errorf("engine: float literal compared with BIGINT column")
			}
			bp.i64 = p.Lit.Int
			bp.f64 = float64(p.Lit.Int)
		case vector.Float64:
			bp.f64 = p.Lit.AsFloat()
			if !p.Lit.IsFloat {
				bp.i64 = p.Lit.Int
			}
		default:
			return nil, fmt.Errorf("engine: cannot filter on %s column", ct)
		}
		r.filters[left.table] = append(r.filters[left.table], bp)
	}
	if len(r.tables) == 2 && r.join == nil {
		return nil, fmt.Errorf("engine: two-table queries require an equi-join condition")
	}

	bindItem := func(it sql.Item) (boundItem, error) {
		bi := boundItem{}
		if it.Agg != "" {
			bi.isAgg = true
			switch it.Agg {
			case "MIN":
				bi.agg = exec.Min
			case "MAX":
				bi.agg = exec.Max
			case "SUM":
				bi.agg = exec.Sum
			case "COUNT":
				bi.agg = exec.Count
			case "AVG":
				bi.agg = exec.Avg
			default:
				return bi, fmt.Errorf("engine: unknown aggregate %q", it.Agg)
			}
		}
		if it.Star {
			bi.star = true
			bi.name = "COUNT(*)"
			return bi, nil
		}
		ref, err := resolveRef(it.Ref)
		if err != nil {
			return bi, err
		}
		bi.ref = ref
		colName := r.tables[ref.table].st.tab.Schema[ref.col].Name
		if bi.isAgg {
			bi.name = fmt.Sprintf("%s(%s)", it.Agg, colName)
		} else {
			bi.name = colName
		}
		return bi, nil
	}

	for _, it := range q.Items {
		bi, err := bindItem(it)
		if err != nil {
			return nil, err
		}
		r.items = append(r.items, bi)
	}

	for _, g := range q.GroupBy {
		ref, err := resolveRef(g)
		if err != nil {
			return nil, err
		}
		r.groupBy = append(r.groupBy, ref)
	}

	for _, h := range q.Having {
		bi, err := bindItem(h.Item)
		if err != nil {
			return nil, err
		}
		if !bi.isAgg {
			return nil, fmt.Errorf("engine: HAVING requires an aggregate expression")
		}
		op, err := cmpOpOf(h.Op)
		if err != nil {
			return nil, err
		}
		bh := boundHaving{item: bi, op: op}
		if h.Lit.IsFloat {
			bh.f64 = h.Lit.Float
			bh.i64 = int64(h.Lit.Float)
		} else {
			bh.i64 = h.Lit.Int
			bh.f64 = float64(h.Lit.Int)
		}
		r.having = append(r.having, bh)
	}

	// Semantic checks: mixing aggregates and bare columns requires GROUP BY
	// over those columns.
	hasAgg := false
	for _, it := range r.items {
		if it.isAgg {
			hasAgg = true
		}
	}
	if hasAgg || len(r.groupBy) > 0 || len(r.having) > 0 {
		for _, it := range r.items {
			if it.isAgg {
				continue
			}
			ok := false
			for _, g := range r.groupBy {
				if g == it.ref {
					ok = true
					break
				}
			}
			if !ok {
				return nil, fmt.Errorf("engine: column %q must appear in GROUP BY", it.name)
			}
		}
	}
	return r, nil
}

func cmpOpOf(op string) (exec.CmpOp, error) {
	switch op {
	case "<":
		return exec.Lt, nil
	case "<=":
		return exec.Le, nil
	case ">":
		return exec.Gt, nil
	case ">=":
		return exec.Ge, nil
	case "=":
		return exec.Eq, nil
	case "<>":
		return exec.Ne, nil
	default:
		return 0, fmt.Errorf("engine: unknown operator %q", op)
	}
}

// neededColumns classifies, per table, which columns the query touches:
// filter columns (needed before the filter), join keys, and output columns
// (aggregation inputs and group keys).
func (r *resolvedQuery) neededColumns() (filterCols, outputCols [][]int) {
	if r.filterCols != nil {
		return r.filterCols, r.outputCols
	}
	nt := len(r.tables)
	fset := make([]map[int]bool, nt)
	oset := make([]map[int]bool, nt)
	for i := range fset {
		fset[i] = make(map[int]bool)
		oset[i] = make(map[int]bool)
	}
	for t, preds := range r.filters {
		for _, p := range preds {
			fset[t][p.col] = true
		}
	}
	if r.join != nil {
		fset[0][r.join.leftCol] = true
		fset[1][r.join.rightCol] = true
	}
	for _, it := range r.items {
		if !it.star {
			oset[it.ref.table][it.ref.col] = true
		}
	}
	for _, h := range r.having {
		if !h.item.star {
			oset[h.item.ref.table][h.item.ref.col] = true
		}
	}
	for _, g := range r.groupBy {
		oset[g.table][g.col] = true
	}
	filterCols = make([][]int, nt)
	outputCols = make([][]int, nt)
	for t := 0; t < nt; t++ {
		for c := range fset[t] {
			filterCols[t] = append(filterCols[t], c)
		}
		for c := range oset[t] {
			if !fset[t][c] {
				outputCols[t] = append(outputCols[t], c)
			}
		}
		sortInts(filterCols[t])
		sortInts(outputCols[t])
	}
	r.filterCols, r.outputCols = filterCols, outputCols
	return filterCols, outputCols
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// describe renders the resolved query for logs/tests.
func (r *resolvedQuery) describe() string {
	var b strings.Builder
	for i, t := range r.tables {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s(%s)", t.alias, t.st.tab.Name)
	}
	return b.String()
}
