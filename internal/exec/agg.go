package exec

import (
	"fmt"
	"math"

	"rawdb/internal/vector"
)

// AggFunc identifies an aggregate function.
type AggFunc uint8

// Supported aggregate functions. SumErr and MergeSum are not surfaced in
// SQL; they are the transport pair parallel plans use to move a morsel's
// float SUM through an exchange without losing precision. A partial
// aggregate emits Sum (the correctly rounded morsel sum, hi) next to SumErr
// (the residue the rounding dropped, lo); the combining aggregate's MergeSum
// re-accumulates every (hi, lo) pair exactly and emits the correctly rounded
// total — bit-identical to a serial SUM over the same rows.
const (
	Min AggFunc = iota
	Max
	Sum
	Count
	Avg
	SumErr
	MergeSum
)

// String returns the SQL name of the function.
func (f AggFunc) String() string {
	switch f {
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Avg:
		return "AVG"
	case SumErr:
		return "SUMERR"
	case MergeSum:
		return "MERGESUM"
	default:
		return "?"
	}
}

// AggSpec is one aggregate to compute. Col is ignored for Count (COUNT(*)
// uses Col = -1). Col2 is used only by MergeSum: Col carries the partial
// sums (hi) and Col2 the matching residues (lo).
type AggSpec struct {
	Func AggFunc
	Col  int
	Col2 int
	// As names the output column; empty derives "FUNC(col)".
	As string
}

// Aggregate computes aggregates over its entire input, optionally grouped by
// one or two int64 key columns. Without grouping it emits exactly one row
// (with COUNT = 0 and NULL-ish zero aggregates on empty input, matching the
// paper's MAX queries which always see at least one row in practice).
type Aggregate struct {
	child   Operator
	specs   []AggSpec
	groupBy []int
	schema  vector.Schema

	done bool

	// Ungrouped state.
	states []aggState

	// Grouped state: key -> group slot.
	groups map[[2]int64]int
	keys   [][2]int64
	gstate [][]aggState
	// dense is the fast path for single-column grouping over small
	// non-negative keys (vectorized group-by): dense[key] holds slot+1.
	dense []int32
	// countOnly marks the specialised grouped-COUNT plan shape.
	countOnly bool
}

// denseLimit bounds the dense group-by table (8 MiB of int32 slots). Keys at
// or above it fall back to the hash path.
const denseLimit = 1 << 21

// denseEligible reports whether every key fits the dense table.
func denseEligible(keys []int64) bool {
	for _, k := range keys {
		if k < 0 || k >= denseLimit {
			return false
		}
	}
	return true
}

// growDense makes key (below denseLimit) addressable in the dense table. The
// table at least doubles, so keys arriving in rising order cost amortised
// O(1) copied slots each rather than a copy of the whole table — up to 8 MiB
// — for every 1024 of them.
func (a *Aggregate) growDense(key int64) {
	n := min(max(2*int64(len(a.dense)), key+1), denseLimit)
	grown := make([]int32, n)
	copy(grown, a.dense)
	a.dense = grown
}

type aggState struct {
	count int64
	i64   int64
	f64   float64
	// exp holds the exact float expansion for SUM/AVG over DOUBLE (and the
	// SumErr/MergeSum transport funcs); allocated on first use.
	exp *fsum
}

// NewAggregate validates specs and groupBy against the child schema.
func NewAggregate(child Operator, specs []AggSpec, groupBy []int) (*Aggregate, error) {
	cs := child.Schema()
	if len(specs) == 0 {
		return nil, fmt.Errorf("exec: aggregate: no aggregate specs")
	}
	if len(groupBy) > 2 {
		return nil, fmt.Errorf("exec: aggregate: at most 2 grouping columns supported, got %d", len(groupBy))
	}
	var schema vector.Schema
	for _, g := range groupBy {
		if g < 0 || g >= len(cs) {
			return nil, fmt.Errorf("exec: aggregate: group column index %d out of range", g)
		}
		if cs[g].Type != vector.Int64 {
			return nil, fmt.Errorf("exec: aggregate: group column %q must be %s", cs[g].Name, vector.Int64)
		}
		schema = append(schema, cs[g])
	}
	for _, s := range specs {
		name := s.As
		switch {
		case s.Func == Count && s.Col < 0:
			if name == "" {
				name = "COUNT(*)"
			}
			schema = append(schema, vector.Col{Name: name, Type: vector.Int64})
			continue
		case s.Col < 0 || s.Col >= len(cs):
			return nil, fmt.Errorf("exec: aggregate: column index %d out of range", s.Col)
		}
		ct := cs[s.Col].Type
		if ct != vector.Int64 && ct != vector.Float64 {
			return nil, fmt.Errorf("exec: aggregate: cannot aggregate %s column %q", ct, cs[s.Col].Name)
		}
		switch s.Func {
		case SumErr:
			if ct != vector.Float64 {
				return nil, fmt.Errorf("exec: aggregate: SUMERR requires a %s column, got %s", vector.Float64, ct)
			}
		case MergeSum:
			if ct != vector.Float64 {
				return nil, fmt.Errorf("exec: aggregate: MERGESUM requires %s columns, got %s", vector.Float64, ct)
			}
			if s.Col2 < 0 || s.Col2 >= len(cs) {
				return nil, fmt.Errorf("exec: aggregate: MERGESUM residue column %d out of range", s.Col2)
			}
			if cs[s.Col2].Type != vector.Float64 {
				return nil, fmt.Errorf("exec: aggregate: MERGESUM residue column %q must be %s", cs[s.Col2].Name, vector.Float64)
			}
		}
		if name == "" {
			name = fmt.Sprintf("%s(%s)", s.Func, cs[s.Col].Name)
		}
		outType := ct
		if s.Func == Avg || s.Func == SumErr || s.Func == MergeSum {
			outType = vector.Float64
		}
		if s.Func == Count {
			outType = vector.Int64
		}
		schema = append(schema, vector.Col{Name: name, Type: outType})
	}
	return &Aggregate{
		child: child, specs: specs, groupBy: groupBy, schema: schema,
		countOnly: len(specs) == 1 && specs[0].Func == Count,
	}, nil
}

// Schema implements Operator.
func (a *Aggregate) Schema() vector.Schema { return a.schema }

// Open implements Operator.
func (a *Aggregate) Open() error {
	a.done = false
	a.states = nil
	a.groups = nil
	a.keys = nil
	a.gstate = nil
	a.dense = nil
	return a.child.Open()
}

func newStates(n int) []aggState {
	st := make([]aggState, n)
	for i := range st {
		st[i].i64 = math.MaxInt64 // min identity; fixed up per func on update
		st[i].f64 = math.Inf(1)
	}
	return st
}

func (a *Aggregate) update(st []aggState, b *vector.Batch, row int) {
	for si, s := range a.specs {
		state := &st[si]
		switch s.Func {
		case Count:
			state.count++
			continue
		case SumErr:
			if state.exp == nil {
				state.exp = &fsum{}
			}
			state.exp.add(b.Cols[s.Col].Float64s[row])
			state.count++
			continue
		case MergeSum:
			if state.exp == nil {
				state.exp = &fsum{}
			}
			state.exp.add(b.Cols[s.Col].Float64s[row])
			state.exp.add(b.Cols[s.Col2].Float64s[row])
			state.count++
			continue
		}
		col := b.Cols[s.Col]
		switch col.Type {
		case vector.Int64:
			v := col.Int64s[row]
			switch s.Func {
			case Min:
				if state.count == 0 || v < state.i64 {
					state.i64 = v
				}
			case Max:
				if state.count == 0 || v > state.i64 {
					state.i64 = v
				}
			case Sum, Avg:
				if state.count == 0 {
					state.i64 = 0
				}
				state.i64 += v
			}
		case vector.Float64:
			v := col.Float64s[row]
			switch s.Func {
			case Min:
				if state.count == 0 || v < state.f64 {
					state.f64 = v
				}
			case Max:
				if state.count == 0 || v > state.f64 {
					state.f64 = v
				}
			case Sum, Avg:
				// Exact expansion, not a running float: SUM/AVG over DOUBLE
				// is the correctly rounded sum, independent of row order —
				// the invariant that keeps morsel-parallel plans bit-exact.
				if state.exp == nil {
					state.exp = &fsum{}
				}
				state.exp.add(v)
			}
		}
		state.count++
	}
}

// Next implements Operator.
func (a *Aggregate) Next() (*vector.Batch, error) {
	if a.done {
		return nil, nil
	}
	grouped := len(a.groupBy) > 0
	if grouped {
		a.groups = make(map[[2]int64]int)
	} else {
		a.states = newStates(len(a.specs))
	}
	for {
		b, err := a.child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		n := b.Len()
		// Batches may carry a selection vector (scans with pushed-down
		// predicates, Filter output): iterate the selected rows directly
		// instead of requiring a compacted copy.
		sel := b.Sel
		if !grouped {
			if sel != nil {
				for _, r := range sel {
					a.update(a.states, b, int(r))
				}
			} else {
				for r := 0; r < n; r++ {
					a.update(a.states, b, r)
				}
			}
			continue
		}
		k0 := b.Cols[a.groupBy[0]].Int64s
		var k1 []int64
		if len(a.groupBy) == 2 {
			k1 = b.Cols[a.groupBy[1]].Int64s
		}
		// Specialised grouped COUNT: the per-row body is two slice indexes
		// and an increment — no aggregate-state dispatch. Applied per batch
		// when every key is in the dense range.
		if a.countOnly && k1 == nil && sel == nil && denseEligible(k0[:n]) {
			for _, key0 := range k0[:n] {
				if int64(len(a.dense)) <= key0 {
					a.growDense(key0)
				}
				slot := a.dense[key0]
				if slot == 0 {
					a.keys = append(a.keys, [2]int64{key0, 0})
					a.gstate = append(a.gstate, newStates(1))
					slot = int32(len(a.keys))
					a.dense[key0] = slot
				}
				a.gstate[slot-1][0].count++
			}
			continue
		}
		nr := n
		if sel != nil {
			nr = len(sel)
		}
		for ri := 0; ri < nr; ri++ {
			r := ri
			if sel != nil {
				r = int(sel[ri])
			}
			key0 := k0[r]
			// Dense fast path: single small non-negative key.
			if k1 == nil && key0 >= 0 && key0 < denseLimit {
				if int64(len(a.dense)) <= key0 {
					a.growDense(key0)
				}
				slot := a.dense[key0]
				if slot == 0 {
					a.keys = append(a.keys, [2]int64{key0, 0})
					a.gstate = append(a.gstate, newStates(len(a.specs)))
					slot = int32(len(a.keys))
					a.dense[key0] = slot
				}
				a.update(a.gstate[slot-1], b, r)
				continue
			}
			var key [2]int64
			key[0] = key0
			if k1 != nil {
				key[1] = k1[r]
			}
			slot, ok := a.groups[key]
			if !ok {
				slot = len(a.keys)
				a.groups[key] = slot
				a.keys = append(a.keys, key)
				a.gstate = append(a.gstate, newStates(len(a.specs)))
			}
			a.update(a.gstate[slot], b, r)
		}
	}
	a.done = true
	return a.emit()
}

func (a *Aggregate) emit() (*vector.Batch, error) {
	ngroups := 1
	if len(a.groupBy) > 0 {
		ngroups = len(a.keys)
		if ngroups == 0 {
			return nil, nil
		}
	}
	out := vector.NewBatch(a.schema.Types(), ngroups)
	cs := a.child.Schema()
	for g := 0; g < ngroups; g++ {
		col := 0
		st := a.states
		if len(a.groupBy) > 0 {
			st = a.gstate[g]
			for ki := range a.groupBy {
				out.Cols[col].AppendInt64(a.keys[g][ki])
				col++
			}
		}
		for si, s := range a.specs {
			state := st[si]
			switch {
			case s.Func == Count:
				out.Cols[col].AppendInt64(state.count)
			case s.Func == Avg:
				var sum float64
				if s.Col >= 0 && cs[s.Col].Type == vector.Int64 {
					sum = float64(state.i64)
				} else if state.exp != nil {
					sum = state.exp.round()
				}
				if state.count == 0 {
					out.Cols[col].AppendFloat64(0)
				} else {
					out.Cols[col].AppendFloat64(sum / float64(state.count))
				}
			case s.Func == SumErr:
				var lo float64
				if state.exp != nil && state.count > 0 {
					_, lo = state.exp.compress()
				}
				out.Cols[col].AppendFloat64(lo)
			case s.Func == MergeSum:
				var v float64
				if state.exp != nil && state.count > 0 {
					v = state.exp.round()
				}
				out.Cols[col].AppendFloat64(v)
			case cs[s.Col].Type == vector.Int64:
				v := state.i64
				if state.count == 0 {
					v = 0
				}
				out.Cols[col].AppendInt64(v)
			default:
				var v float64
				if s.Func == Sum {
					if state.exp != nil && state.count > 0 {
						v = state.exp.round()
					}
				} else if state.count > 0 {
					v = state.f64
				}
				out.Cols[col].AppendFloat64(v)
			}
			col++
		}
	}
	return out, nil
}

// Close implements Operator.
func (a *Aggregate) Close() error { return a.child.Close() }
