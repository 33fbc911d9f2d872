package exec

import (
	"fmt"

	"rawdb/internal/vector"
)

// CmpOp is a comparison operator in a predicate.
type CmpOp uint8

// Comparison operators.
const (
	Lt CmpOp = iota
	Le
	Gt
	Ge
	Eq
	Ne
)

// String returns the SQL spelling of the operator.
func (o CmpOp) String() string {
	switch o {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	case Ne:
		return "<>"
	default:
		return "?"
	}
}

// Pred is a comparison of one column against a constant. Predicates on a
// Filter are conjunctive. Col names a column of whatever the predicate is
// evaluated against: a batch slot inside Filter, a table column index when a
// predicate is pushed down into a generated scan (jit.Pushdown.Preds) or
// tested against a zone map (synopsis).
type Pred struct {
	Col int
	Op  CmpOp
	// Lit holds the literal; the field matching the column type is used.
	I64 int64
	F64 float64
}

// MatchInt64 reports whether "x op I64" holds.
func (p Pred) MatchInt64(x int64) bool { return cmp(x, p.I64, p.Op) }

// MatchFloat64 reports whether "x op F64" holds.
func (p Pred) MatchFloat64(x float64) bool { return cmp(x, p.F64, p.Op) }

// CheckPreds reports an error unless every predicate names a numeric column
// of schema.
func CheckPreds(schema vector.Schema, preds []Pred) error {
	for _, p := range preds {
		if p.Col < 0 || p.Col >= len(schema) {
			return fmt.Errorf("exec: predicate column %d out of range", p.Col)
		}
		if t := schema[p.Col].Type; t != vector.Int64 && t != vector.Float64 {
			return fmt.Errorf("exec: unsupported predicate column type %s", t)
		}
	}
	return nil
}

// Select evaluates the conjunction preds (at least one; Col = index into
// cols) over one batch and returns the qualifying physical row indexes,
// ascending, in buf's storage. The candidates are the rows of in, the batch's
// incoming selection, when it is non-nil, else rows [0, n). It is the one
// conjunction loop: Filter, MemScan and the row-addressed JIT scans all
// evaluate predicates through it. It is branch-free: every candidate's index
// is written and the count advances by the comparison, so its cost per row
// does not depend on selectivity.
func Select(buf []int32, cols []*vector.Vector, preds []Pred, in []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	sel := append(buf[:0], in...)
	for i, p := range preds {
		v := cols[p.Col]
		switch {
		case i == 0 && in == nil && v.Type == vector.Int64:
			sel = evalPredAll(buf[:n], v.Int64s[:n], p.Op, p.I64)
		case i == 0 && in == nil:
			sel = evalPredAll(buf[:n], v.Float64s[:n], p.Op, p.F64)
		case len(sel) == 0:
			return sel
		case v.Type == vector.Int64:
			sel = evalPredSel(sel, v.Int64s, p.Op, p.I64)
		default:
			sel = evalPredSel(sel, v.Float64s, p.Op, p.F64)
		}
	}
	return sel
}

// Filter passes through the rows of its child that satisfy every predicate.
// Output batches share the child's column vectors and carry a selection
// vector marking the qualifying rows — no compact-copying on the hot path;
// consumers that need dense rows compact at their own boundary (see
// vector.Batch.Sel).
type Filter struct {
	child  Operator
	preds  []Pred
	schema vector.Schema

	sel []int32
	out vector.Batch
}

// NewFilter validates the predicates against the child schema.
func NewFilter(child Operator, preds []Pred) (*Filter, error) {
	schema := child.Schema()
	if err := CheckPreds(schema, preds); err != nil {
		return nil, err
	}
	return &Filter{child: child, preds: preds, schema: schema}, nil
}

// Schema implements Operator.
func (f *Filter) Schema() vector.Schema { return f.schema }

// Open implements Operator.
func (f *Filter) Open() error { return f.child.Open() }

// Next implements Operator.
func (f *Filter) Next() (*vector.Batch, error) {
	for {
		b, err := f.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		if len(f.preds) == 0 {
			return b, nil
		}
		// A child that already selected rows (a scan with pushed-down
		// predicates, or another Filter) has its selection refined on a
		// private copy.
		n := b.Len()
		f.sel = Select(f.sel, b.Cols, f.preds, b.Sel, n)
		if len(f.sel) == 0 {
			continue // fully filtered batch; pull the next one
		}
		if b.Sel == nil && len(f.sel) == n {
			return b, nil // nothing filtered; pass through untouched
		}
		// Zero-copy selection: share the child's vectors, mark survivors.
		f.out.Cols = append(f.out.Cols[:0], b.Cols...)
		f.out.Sel = f.sel
		return &f.out, nil
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.child.Close() }

// evalPredAll writes to sel, as long as s, the indexes i with "s[i] op lit".
// The store is unconditional and the comparison only advances the count,
// which compiles to a flag set and an add: no branch per row to mispredict.
func evalPredAll[T int64 | float64](sel []int32, s []T, op CmpOp, lit T) []int32 {
	k := 0
	switch op {
	case Lt:
		for i, x := range s {
			sel[k] = int32(i)
			k += b2i(x < lit)
		}
	case Le:
		for i, x := range s {
			sel[k] = int32(i)
			k += b2i(x <= lit)
		}
	case Gt:
		for i, x := range s {
			sel[k] = int32(i)
			k += b2i(x > lit)
		}
	case Ge:
		for i, x := range s {
			sel[k] = int32(i)
			k += b2i(x >= lit)
		}
	case Eq:
		for i, x := range s {
			sel[k] = int32(i)
			k += b2i(x == lit)
		}
	case Ne:
		for i, x := range s {
			sel[k] = int32(i)
			k += b2i(x != lit)
		}
	}
	return sel[:k]
}

// evalPredSel is evalPredAll over the indexes already in sel: k never passes
// the index being read, so it filters sel in place.
func evalPredSel[T int64 | float64](sel []int32, s []T, op CmpOp, lit T) []int32 {
	k := 0
	switch op {
	case Lt:
		for _, i := range sel {
			sel[k] = i
			k += b2i(s[i] < lit)
		}
	case Le:
		for _, i := range sel {
			sel[k] = i
			k += b2i(s[i] <= lit)
		}
	case Gt:
		for _, i := range sel {
			sel[k] = i
			k += b2i(s[i] > lit)
		}
	case Ge:
		for _, i := range sel {
			sel[k] = i
			k += b2i(s[i] >= lit)
		}
	case Eq:
		for _, i := range sel {
			sel[k] = i
			k += b2i(s[i] == lit)
		}
	case Ne:
		for _, i := range sel {
			sel[k] = i
			k += b2i(s[i] != lit)
		}
	}
	return sel[:k]
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func cmp[T int64 | float64](x, lit T, op CmpOp) bool {
	switch op {
	case Lt:
		return x < lit
	case Le:
		return x <= lit
	case Gt:
		return x > lit
	case Ge:
		return x >= lit
	case Eq:
		return x == lit
	case Ne:
		return x != lit
	}
	return false
}
