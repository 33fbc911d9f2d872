package jit

import (
	"rawdb/internal/exec"
	"rawdb/internal/synopsis"
)

// Pushdown carries the per-query extras a generated access path can absorb
// beyond plain column materialisation. All fields are optional; the zero
// value generates exactly the access path the plain constructors do.
type Pushdown struct {
	// Preds are conjunctive predicates on columns of the scan's Need set
	// (Col = schema column index). Sequential scans inline the checks into
	// the per-row step chain and short-circuit the rest of the row when one
	// fails; vectorized (via-map/direct) scans read predicate columns first,
	// evaluate the conjunction over the batch, and either read the remaining
	// columns selectively under a selection vector or skip the batch range
	// entirely.
	Preds []exec.Pred
	// Syn observes parsed values into a zone-map builder as a free side
	// effect of scanning. The planner attaches accumulators only for columns
	// the generated code parses unconditionally (see DESIGN.md).
	Syn *synopsis.Builder
	// Skip reports whether rows [start, end) can produce no qualifying row
	// (a zone-map exclusion test). Consulted by via-map and direct scans
	// before decoding a batch range; advisory — surviving rows are still
	// checked by Preds or the Filter above.
	Skip func(start, end int64) bool
}

// predsFor returns the conjuncts bound to column c.
func predsFor(preds []exec.Pred, c int) []exec.Pred {
	var out []exec.Pred
	for _, p := range preds {
		if p.Col == c {
			out = append(out, p)
		}
	}
	return out
}

// intPredTest compiles the conjuncts into one monomorphic test closure
// (resolved at generation time, like conversion functions), or nil when ps is
// empty. The single-conjunct case folds the operator and literal into the
// closure directly.
func intPredTest(ps []exec.Pred) func(int64) bool {
	switch len(ps) {
	case 0:
		return nil
	case 1:
		p := ps[0]
		lit := p.I64
		switch p.Op {
		case exec.Lt:
			return func(v int64) bool { return v < lit }
		case exec.Le:
			return func(v int64) bool { return v <= lit }
		case exec.Gt:
			return func(v int64) bool { return v > lit }
		case exec.Ge:
			return func(v int64) bool { return v >= lit }
		case exec.Eq:
			return func(v int64) bool { return v == lit }
		default:
			return func(v int64) bool { return v != lit }
		}
	default:
		return func(v int64) bool {
			for _, p := range ps {
				if !p.MatchInt64(v) {
					return false
				}
			}
			return true
		}
	}
}

// floatPredTest is the float twin of intPredTest.
func floatPredTest(ps []exec.Pred) func(float64) bool {
	switch len(ps) {
	case 0:
		return nil
	case 1:
		p := ps[0]
		lit := p.F64
		switch p.Op {
		case exec.Lt:
			return func(v float64) bool { return v < lit }
		case exec.Le:
			return func(v float64) bool { return v <= lit }
		case exec.Gt:
			return func(v float64) bool { return v > lit }
		case exec.Ge:
			return func(v float64) bool { return v >= lit }
		case exec.Eq:
			return func(v float64) bool { return v == lit }
		default:
			return func(v float64) bool { return v != lit }
		}
	default:
		return func(v float64) bool {
			for _, p := range ps {
				if !p.MatchFloat64(v) {
					return false
				}
			}
			return true
		}
	}
}
