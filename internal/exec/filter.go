package exec

import (
	"fmt"
	"math"

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
// predicate is pushed down into a generated scan (jit.Spec.Preds) or tested
// against a zone map (synopsis).
type Pred struct {
	Col int
	Op  CmpOp
	// Lit holds the literal; the field matching the column type is used.
	I64 int64
	F64 float64
}

// MatchInt64 reports whether "x op I64" holds.
func (p Pred) MatchInt64(x int64) bool { return cmpInt64(x, p.I64, p.Op) }

// MatchFloat64 reports whether "x op F64" holds.
func (p Pred) MatchFloat64(x float64) bool { return cmpFloat64(x, p.F64, p.Op) }

// String renders the predicate for logs and template-cache keys.
func (p Pred) String() string {
	return fmt.Sprintf("c%d%s%d/%x", p.Col, p.Op, p.I64, math.Float64bits(p.F64))
}

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
// evaluate predicates through it.
func Select(buf []int32, cols []*vector.Vector, preds []Pred, in []int32, n int) []int32 {
	sel := buf[:0]
	if in != nil {
		sel = append(sel, in...)
	} else {
		sel = evalPredAll(sel, cols[preds[0].Col], preds[0], n)
		preds = preds[1:]
	}
	for _, p := range preds {
		if len(sel) == 0 {
			break
		}
		sel = evalPredSel(sel, cols[p.Col], p)
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

// evalPredAll appends to sel the indexes in [0, n) satisfying p over v.
func evalPredAll(sel []int32, v *vector.Vector, p Pred, n int) []int32 {
	switch v.Type {
	case vector.Int64:
		s := v.Int64s[:n]
		lit := p.I64
		switch p.Op {
		case Lt:
			for i, x := range s {
				if x < lit {
					sel = append(sel, int32(i))
				}
			}
		case Le:
			for i, x := range s {
				if x <= lit {
					sel = append(sel, int32(i))
				}
			}
		case Gt:
			for i, x := range s {
				if x > lit {
					sel = append(sel, int32(i))
				}
			}
		case Ge:
			for i, x := range s {
				if x >= lit {
					sel = append(sel, int32(i))
				}
			}
		case Eq:
			for i, x := range s {
				if x == lit {
					sel = append(sel, int32(i))
				}
			}
		case Ne:
			for i, x := range s {
				if x != lit {
					sel = append(sel, int32(i))
				}
			}
		}
	case vector.Float64:
		s := v.Float64s[:n]
		lit := p.F64
		switch p.Op {
		case Lt:
			for i, x := range s {
				if x < lit {
					sel = append(sel, int32(i))
				}
			}
		case Le:
			for i, x := range s {
				if x <= lit {
					sel = append(sel, int32(i))
				}
			}
		case Gt:
			for i, x := range s {
				if x > lit {
					sel = append(sel, int32(i))
				}
			}
		case Ge:
			for i, x := range s {
				if x >= lit {
					sel = append(sel, int32(i))
				}
			}
		case Eq:
			for i, x := range s {
				if x == lit {
					sel = append(sel, int32(i))
				}
			}
		case Ne:
			for i, x := range s {
				if x != lit {
					sel = append(sel, int32(i))
				}
			}
		}
	}
	return sel
}

// evalPredSel filters sel in place, keeping indexes satisfying p over v.
func evalPredSel(sel []int32, v *vector.Vector, p Pred) []int32 {
	out := sel[:0]
	switch v.Type {
	case vector.Int64:
		s := v.Int64s
		for _, i := range sel {
			if cmpInt64(s[i], p.I64, p.Op) {
				out = append(out, i)
			}
		}
	case vector.Float64:
		s := v.Float64s
		for _, i := range sel {
			if cmpFloat64(s[i], p.F64, p.Op) {
				out = append(out, i)
			}
		}
	}
	return out
}

func cmpInt64(x, lit int64, op CmpOp) bool {
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

func cmpFloat64(x, lit float64, op CmpOp) bool {
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
