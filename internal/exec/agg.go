package exec

import (
	"fmt"
	"math/bits"

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
//
// It works a batch at a time: first every selected row's group slot is
// resolved into a reused buffer, then one loop per spec, specialised for its
// function and column type, folds the batch into the group states. An
// ungrouped aggregate is the one-group case, whose loops keep their running
// values in local variables.
type Aggregate struct {
	child   Operator
	specs   []AggSpec
	groupBy []int
	schema  vector.Schema

	done bool

	// Group g's states are states[g*len(specs):][:len(specs)]; keys[g] is
	// its key when grouped.
	keys   [][2]int64
	states []aggState
	// sums[si][g] is group g's exact sum for spec si, a float Sum, Avg,
	// SumErr or MergeSum: apart, so states hold no pointers to scan.
	sums [][]fsum
	// table is the hash path: open addressing over slot+1 (0 is free),
	// indexed by the top bits of a Fibonacci hash and probed linearly, at
	// most half full. A probe compares keys[slot], so keys are stored once.
	table []int32
	// dense is the fast path for single-column grouping over small
	// non-negative keys (vectorized group-by): dense[key] holds slot+1.
	dense []int32

	// all holds 0, 1, 2, ...: the rows of a batch without a selection.
	// slots holds each selected row's group slot; an ungrouped aggregate
	// never writes it, so its slots are all group 0.
	all, slots []int32
}

// seq and zeros are read-only starts for Aggregate.all and an ungrouped
// Aggregate.slots, so that default-sized batches allocate neither.
var seq, zeros = func() (seq, zeros [vector.DefaultBatchSize]int32) {
	for i := range seq {
		seq[i] = int32(i)
	}
	return seq, zeros
}()

// denseLimit bounds the dense group-by table (8 MiB of int32 slots). Keys at
// or above it fall back to the hash path.
const denseLimit = 1 << 21

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

// aggState is one spec's state in one group. Min and Max take their first
// value when count is 0, so a zero aggState is every function's identity.
type aggState struct {
	count int64
	i64   int64
	f64   float64
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
	a := &Aggregate{child: child, specs: specs, groupBy: groupBy, schema: schema, all: seq[:]}
	if len(groupBy) == 0 {
		a.slots = zeros[:]
	}
	return a, nil
}

// Schema implements Operator.
func (a *Aggregate) Schema() vector.Schema { return a.schema }

// Open implements Operator.
func (a *Aggregate) Open() error {
	a.done = false
	a.keys, a.states, a.sums, a.table, a.dense = nil, nil, nil, nil, nil
	if len(a.groupBy) == 0 {
		a.states = make([]aggState, len(a.specs))
	}
	return a.child.Open()
}

// newGroup adds a group with zero states and returns its slot. The states
// double when they grow: append grows a large slice by 1.25×, which on the
// hash path's tens of thousands of groups clears and copies them many times.
func (a *Aggregate) newGroup(key [2]int64) int32 {
	n := len(a.states) + len(a.specs)
	if n > cap(a.states) {
		a.states = append(make([]aggState, 0, 2*n), a.states...)
	}
	a.states = a.states[:n]
	a.keys = append(a.keys, key)
	return int32(len(a.keys) - 1)
}

// resolve returns the group slot of each of b's rows, creating groups for
// keys not seen before.
func (a *Aggregate) resolve(b *vector.Batch, rows []int32) []int32 {
	if len(a.slots) < len(rows) {
		a.slots = make([]int32, len(rows))
	}
	slots := a.slots[:len(rows)]
	if len(a.groupBy) == 0 {
		return slots
	}
	k0, k1 := b.Cols[a.groupBy[0]].Int64s, []int64(nil)
	if len(a.groupBy) == 2 {
		k1 = b.Cols[a.groupBy[1]].Int64s
	}
	for i, r := range rows {
		key := [2]int64{k0[r]}
		if k1 != nil {
			key[1] = k1[r]
		} else if uint64(key[0]) < denseLimit {
			if key[0] >= int64(len(a.dense)) {
				a.growDense(key[0])
			}
			if a.dense[key[0]] == 0 {
				a.dense[key[0]] = a.newGroup(key) + 1
			}
			slots[i] = a.dense[key[0]] - 1
			continue
		}
		if 2*len(a.keys) >= len(a.table) {
			a.rehash()
		}
		e := a.find(key)
		if a.table[e] == 0 {
			a.table[e] = a.newGroup(key) + 1
		}
		slots[i] = a.table[e] - 1
	}
	return slots
}

// find returns the index of key's entry in the hash table, or of the free
// entry where it belongs.
func (a *Aggregate) find(key [2]int64) uint64 {
	mask := uint64(len(a.table) - 1)
	e := khash(key[0]^int64(khash(key[1]))) >> bits.LeadingZeros64(mask)
	for a.table[e] != 0 && a.keys[a.table[e]-1] != key {
		e = (e + 1) & mask
	}
	return e
}

// rehash sizes the hash table to four times the groups, at least 1024
// entries, and enters every group.
func (a *Aggregate) rehash() {
	a.table = make([]int32, max(1024, 1<<bits.Len(uint(4*len(a.keys)))))
	for slot, key := range a.keys {
		a.table[a.find(key)] = int32(slot) + 1
	}
}

// consume folds batch b into the group states. Batches may carry a
// selection vector (scans with pushed-down predicates, Filter output): the
// selected rows are aggregated directly instead of from a compacted copy.
func (a *Aggregate) consume(b *vector.Batch) {
	rows := b.Sel
	if rows == nil {
		for i := len(a.all); i < b.Len(); i++ {
			a.all = append(a.all, int32(i))
		}
		rows = a.all[:b.Len()]
	}
	a.update(b, rows, a.resolve(b, rows))
}

// owner returns the spec whose state spec si reads: for a SumErr, the Sum
// on the same column if there is one, so that each value is added to one
// exact accumulator and not two; otherwise si itself.
func (a *Aggregate) owner(si int) int {
	for sj, s := range a.specs {
		if a.specs[si].Func == SumErr && s.Func == Sum && s.Col == a.specs[si].Col {
			return sj
		}
	}
	return si
}

// update folds b's rows into their groups' states, one loop per spec. The
// one group of an ungrouped aggregate keeps a MIN, MAX or integer SUM running
// in a local variable, so that no row waits on the previous row's store, and
// stores it once; its COUNT adds the batch's rows.
func (a *Aggregate) update(b *vector.Batch, rows, slots []int32) {
	one := len(a.groupBy) == 0
	for si, s := range a.specs {
		if a.owner(si) != si {
			continue
		}
		st, ns := a.states[si:], len(a.specs) // group g's state of spec si is st[g*ns]
		x, n := &st[0], int64(len(rows))      // the one group's state
		if s.Func == Count && one {
			x.count += n
			continue
		}
		if s.Func == Count {
			for _, g := range slots {
				st[int(g)*ns].count++
			}
			continue
		}
		col, isMax := b.Cols[s.Col], s.Func == Max
		switch {
		case one && col.Type == vector.Int64 && (s.Func == Min || isMax):
			x.i64, x.count = extreme(x.i64, x.count, rows, col.Int64s, isMax), x.count+n
		case one && col.Type == vector.Int64: // Sum, Avg
			var sum int64
			for _, r := range rows {
				sum += col.Int64s[r]
			}
			x.i64, x.count = x.i64+sum, x.count+n
		case one && (s.Func == Min || isMax):
			x.f64, x.count = extreme(x.f64, x.count, rows, col.Float64s, isMax), x.count+n
		case col.Type == vector.Int64 && (s.Func == Min || isMax):
			fold(st, ns, rows, slots, col.Int64s, func(x *aggState, v int64) {
				if x.count == 0 || isMax && v > x.i64 || !isMax && v < x.i64 {
					x.i64 = v
				}
			})
		case col.Type == vector.Int64: // Sum, Avg
			fold(st, ns, rows, slots, col.Int64s, func(x *aggState, v int64) { x.i64 += v })
		case s.Func == Min || isMax:
			fold(st, ns, rows, slots, col.Float64s, func(x *aggState, v float64) {
				if x.count == 0 || isMax && v > x.f64 || !isMax && v < x.f64 {
					x.f64 = v
				}
			})
		default: // Sum, Avg, SumErr, MergeSum over DOUBLE: the exact sum, not a running float
			sums := a.exact(si)
			for i, r := range rows {
				sums[slots[i]].add(col.Float64s[r])
				st[int(slots[i])*ns].count++
			}
			if s.Func == MergeSum { // the residues join the same sum; count is only tested against 0
				for i, r := range rows {
					sums[slots[i]].add(b.Cols[s.Col2].Float64s[r])
				}
			}
		}
	}
}

// exact returns spec si's exact sums, one per group.
func (a *Aggregate) exact(si int) []fsum {
	a.sums = append(a.sums, make([][]fsum, len(a.specs)-len(a.sums))...)
	a.sums[si] = append(a.sums[si], make([]fsum, len(a.states)/len(a.specs)-len(a.sums[si]))...)
	return a.sums[si]
}

// extreme folds the selected values of v into m, the MIN (or MAX) of a state
// that has seen count rows: a state that has seen none takes the first value.
func extreme[T int64 | float64](m T, count int64, rows []int32, v []T, isMax bool) T {
	for i, r := range rows {
		if x := v[r]; i == 0 && count == 0 || isMax && x > m || !isMax && x < m {
			m = x
		}
	}
	return m
}

// fold applies step to each selected row's value and its group's state, and
// counts the row. step is inlined: fold is the loop of one spec.
func fold[T int64 | float64](st []aggState, ns int, rows, slots []int32, v []T, step func(x *aggState, v T)) {
	for i, r := range rows {
		x := &st[int(slots[i])*ns]
		step(x, v[r])
		x.count++
	}
}

// Next implements Operator.
func (a *Aggregate) Next() (*vector.Batch, error) {
	if a.done {
		return nil, nil
	}
	for {
		b, err := a.child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		a.consume(b)
	}
	a.done = true
	return a.emit()
}

func (a *Aggregate) emit() (*vector.Batch, error) {
	ns := len(a.specs)
	ngroups := len(a.states) / ns
	if ngroups == 0 {
		return nil, nil
	}
	out := vector.NewBatch(a.schema.Types(), ngroups)
	for ki := range a.groupBy {
		for _, key := range a.keys {
			out.Cols[ki].AppendInt64(key[ki])
		}
	}
	cs := a.child.Schema()
	for si, s := range a.specs {
		o, dst := a.owner(si), out.Cols[len(a.groupBy)+si]
		for g := range ngroups {
			x := a.states[g*ns+o]
			switch {
			case s.Func == Count || x.count == 0: // count is 0 only in an ungrouped aggregate over no rows: all 0
				if dst.Type == vector.Int64 {
					dst.AppendInt64(x.count)
				} else {
					dst.AppendFloat64(0)
				}
			case s.Func == Avg && cs[s.Col].Type == vector.Int64:
				dst.AppendFloat64(float64(x.i64) / float64(x.count))
			case s.Func == Avg:
				dst.AppendFloat64(a.sums[o][g].round() / float64(x.count))
			case s.Func == SumErr:
				_, lo := a.sums[o][g].compress()
				dst.AppendFloat64(lo)
			case s.Func == Sum && dst.Type == vector.Float64, s.Func == MergeSum:
				dst.AppendFloat64(a.sums[o][g].round())
			case dst.Type == vector.Int64:
				dst.AppendInt64(x.i64)
			default:
				dst.AppendFloat64(x.f64)
			}
		}
	}
	return out, nil
}

// Close implements Operator.
func (a *Aggregate) Close() error { return a.child.Close() }
