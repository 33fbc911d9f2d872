package exec

import (
	"fmt"
	"math/bits"
	"slices"

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

	// The group states are columns indexed by group slot: keys[k] holds
	// group column k; counts the groups' rows, the same for every spec as no
	// input is NULL (a grouped aggregate adds them up only when counted, that
	// is when a COUNT or AVG reads them); vals[si].Int64s spec si's integer
	// MIN, MAX, SUM or AVG and vals[si].Float64s its float MIN or MAX; and
	// sums[si] the exact sums of its float SUM, AVG, SUMERR or MERGESUM. Only
	// sums hold pointers for the collector to scan.
	keys    [2][]int64
	counts  []int64
	counted bool
	vals    []vector.Vector
	sums    [][]fsum
	// table is the hash path: open addressing over slot+1 (0 is free),
	// indexed by the top bits of a Fibonacci hash and probed linearly, at
	// most half full. A probe compares the keys at the slot, so keys are
	// stored once.
	table []int32
	// dense is the fast path for single-column grouping over small
	// non-negative keys (vectorized group-by): dense[key] holds slot+1.
	dense []int32

	// all holds 0, 1, 2, ...: the rows of a batch without a selection.
	// slots holds each selected row's group slot; an ungrouped aggregate
	// never writes it, so its slots are all group 0. fresh holds the
	// positions, among the batch's rows, of those that created a group.
	all, slots, fresh []int32

	// partial is set by MarkPartial; rows counts the rows folded while it
	// decides, bypass is the decision. A bypassing partial returns passed,
	// whose COUNT and SUMERR columns are ones and noErr.
	partial, bypass bool
	rows            int
	passed          *vector.Batch
	ones, noErr     *vector.Vector
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

// bypassAfter is how many rows a partial folds before it decides whether it
// reduces its input.
const bypassAfter = 4096

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

// extend lengthens s to n, the new elements zero. Its capacity at least
// doubles when it grows, from 16: append grows a large slice by 1.25×, which
// on the hash path's tens of thousands of groups clears and copies it many
// times. The states only grow between resets, so the elements past len(s)
// are zero.
func extend[T any](s []T, n int) []T {
	if n > cap(s) {
		s = append(make([]T, 0, max(n, 2*cap(s), 16)), s...)
	}
	return s[:n]
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
	a.counted = slices.ContainsFunc(specs, func(s AggSpec) bool { return s.Func == Count || s.Func == Avg })
	if len(groupBy) == 0 {
		a.slots = zeros[:]
	}
	return a, nil
}

// MarkPartial declares the aggregate the first stage of a grouped two-stage
// plan, whose output a final stage merges by key: it may then stop hashing
// (see Next).
// Only COUNT, MIN, MAX, SUM and SUMERR have one-row partials; with another
// spec, or without group columns, MarkPartial does nothing.
func (a *Aggregate) MarkPartial() {
	a.partial = len(a.groupBy) > 0 && !slices.ContainsFunc(a.specs, func(s AggSpec) bool { return s.Func == Avg || s.Func == MergeSum })
}

// Schema implements Operator.
func (a *Aggregate) Schema() vector.Schema { return a.schema }

// Open implements Operator.
func (a *Aggregate) Open() error {
	a.done, a.bypass, a.rows = false, false, 0
	a.reset()
	a.vals = make([]vector.Vector, len(a.specs))
	if len(a.groupBy) == 0 { // the one group's count and integer states share an allocation
		one := make([]int64, 1+len(a.specs))
		a.counts = one[:1:1]
		for si := range a.vals {
			a.vals[si].Int64s = one[1+si : 1+si : 2+si]
		}
	}
	return a.child.Open()
}

// reset drops the group states.
func (a *Aggregate) reset() {
	a.keys, a.counts, a.sums, a.table, a.dense = [2][]int64{}, nil, nil, nil, nil
	clear(a.vals)
}

// newGroup adds a group, created by the i-th of a batch's rows, and returns
// its slot.
func (a *Aggregate) newGroup(i int, k0, k1 int64) int32 {
	g := len(a.counts)
	a.counts = extend(a.counts, g+1)
	a.keys[0] = extend(a.keys[0], g+1)
	a.keys[0][g] = k0
	if len(a.groupBy) == 2 {
		a.keys[1] = extend(a.keys[1], g+1)
		a.keys[1][g] = k1
	}
	a.fresh = append(a.fresh, int32(i))
	return int32(g)
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
	a.fresh = a.fresh[:0]
	k0, k1 := b.Cols[a.groupBy[0]].Int64s, []int64(nil)
	if len(a.groupBy) == 2 {
		k1 = b.Cols[a.groupBy[1]].Int64s
	}
	for i, r := range rows {
		key, key1 := k0[r], int64(0)
		if k1 != nil {
			key1 = k1[r]
		} else if uint64(key) < denseLimit {
			if key >= int64(len(a.dense)) {
				a.growDense(key)
			}
			if a.dense[key] == 0 {
				a.dense[key] = a.newGroup(i, key, 0) + 1
			}
			slots[i] = a.dense[key] - 1
			continue
		}
		if 2*len(a.counts) >= len(a.table) {
			a.rehash()
		}
		e := a.find(key, key1)
		if a.table[e] == 0 {
			a.table[e] = a.newGroup(i, key, key1) + 1
		}
		slots[i] = a.table[e] - 1
	}
	return slots
}

// find returns the index of key (k0, k1)'s entry in the hash table, or of
// the free entry where it belongs.
func (a *Aggregate) find(k0, k1 int64) uint64 {
	mask, two := uint64(len(a.table)-1), len(a.groupBy) == 2
	e := khash(k0^int64(khash(k1))) >> bits.LeadingZeros64(mask)
	for s := a.table[e]; s != 0 && (a.keys[0][s-1] != k0 || two && a.keys[1][s-1] != k1); s = a.table[e] {
		e = (e + 1) & mask
	}
	return e
}

// rehash sizes the hash table to four times the groups, at least 1024
// entries, and enters every group.
func (a *Aggregate) rehash() {
	a.table = make([]int32, max(1024, 1<<bits.Len(uint(4*len(a.counts)))))
	for slot, k0 := range a.keys[0] {
		var k1 int64
		if len(a.groupBy) == 2 {
			k1 = a.keys[1][slot]
		}
		a.table[a.find(k0, k1)] = int32(slot) + 1
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

// update folds b's rows into their groups' states, one typed loop per spec,
// then counts them if counted. The one group of an ungrouped aggregate keeps
// a MIN, MAX or integer SUM running in a local variable, so that no row waits
// on the previous row's store, and stores it once; its count adds the batch's
// rows.
func (a *Aggregate) update(b *vector.Batch, rows, slots []int32) {
	one, n := len(a.groupBy) == 0, len(a.counts)
	for si, s := range a.specs {
		if s.Func == Count || a.owner(si) != si {
			continue
		}
		col, v := b.Cols[s.Col], &a.vals[si]
		isMax, ext := s.Func == Max, s.Func == Min || s.Func == Max
		switch {
		case col.Type == vector.Int64:
			v.Int64s = extend(v.Int64s, n)
			m := v.Int64s
			switch {
			case one && ext:
				m[0] = extreme(m[0], a.counts[0], rows, col.Int64s, isMax)
			case one: // Sum, Avg
				var sum int64
				for _, r := range rows {
					sum += col.Int64s[r]
				}
				m[0] += sum
			case ext:
				extremes(m, rows, slots, a.fresh, col.Int64s, isMax)
			default: // Sum, Avg
				for i, r := range rows {
					m[slots[i]] += col.Int64s[r]
				}
			}
		case ext:
			v.Float64s = extend(v.Float64s, n)
			if one {
				v.Float64s[0] = extreme(v.Float64s[0], a.counts[0], rows, col.Float64s, isMax)
			} else {
				extremes(v.Float64s, rows, slots, a.fresh, col.Float64s, isMax)
			}
		default: // Sum, Avg, SumErr, MergeSum over DOUBLE: the exact sum, not a running float
			sums := a.exact(si)
			for i, r := range rows {
				sums[slots[i]].add(col.Float64s[r])
			}
			if s.Func == MergeSum { // the residues join the same sum
				for i, r := range rows {
					sums[slots[i]].add(b.Cols[s.Col2].Float64s[r])
				}
			}
		}
	}
	if one {
		a.counts[0] += int64(len(rows))
	} else if a.counted {
		for _, g := range slots {
			a.counts[g]++
		}
	}
}

// exact returns spec si's exact sums, one per group.
func (a *Aggregate) exact(si int) []fsum {
	a.sums = extend(a.sums, len(a.specs))
	a.sums[si] = extend(a.sums[si], len(a.counts))
	return a.sums[si]
}

// below is MIN and MAX's order: NaN sorts above every number, as in
// PostgreSQL, so a MIN is NaN only if every value is and a MAX is NaN if any
// value is, whatever order the values (or a two-stage plan's partials) come
// in. Numbers compare as they are.
func below[T int64 | float64](a, b T) bool { return a < b || b != b && a == a }

// extreme folds the selected values of v into m, the MIN (or MAX) of a state
// that has seen count rows: a state that has seen none takes the first value.
func extreme[T int64 | float64](m T, count int64, rows []int32, v []T, isMax bool) T {
	for i, r := range rows {
		if x := v[r]; i == 0 && count == 0 || isMax && below(m, x) || !isMax && below(x, m) {
			m = x
		}
	}
	return m
}

// extremes folds the selected values of v into m, each group's MIN (or
// MAX). A group first takes the value of the row that created it: fresh
// holds those rows' positions in rows.
func extremes[T int64 | float64](m []T, rows, slots, fresh []int32, v []T, isMax bool) {
	for _, i := range fresh {
		m[slots[i]] = v[rows[i]]
	}
	if isMax {
		for i, r := range rows {
			if x := v[r]; below(m[slots[i]], x) {
				m[slots[i]] = x
			}
		}
		return
	}
	for i, r := range rows {
		if x := v[r]; below(x, m[slots[i]]) {
			m[slots[i]] = x
		}
	}
}

// Next implements Operator. A partial (MarkPartial) that holds more groups
// than half of the first bypassAfter rows it folded does not reduce its
// input: it emits those groups, then returns every further batch as one-row
// partials (pass), hashing nothing. The decision depends on row counts
// alone, and the stream still shows each group first where the serial plan
// meets it: the early groups in first-seen order, then the later rows in
// row order.
func (a *Aggregate) Next() (*vector.Batch, error) {
	for !a.done {
		b, err := a.child.Next()
		switch {
		case err != nil:
			return nil, err
		case b == nil:
			a.done = true
			if !a.bypass {
				return a.emit(), nil
			}
		case a.bypass:
			return a.pass(b), nil
		default:
			a.consume(b)
			if a.partial && a.rows < bypassAfter {
				if a.rows += BatchRows(b); a.rows >= bypassAfter && 2*len(a.counts) > a.rows {
					out := a.emit()
					a.reset()
					a.bypass = true
					return out, nil
				}
			}
		}
	}
	return nil, nil
}

// emit hands the group states to a batch: the keys, counts and value
// columns as they are. Only AVG, float SUM and SUMERR are computed per group.
func (a *Aggregate) emit() *vector.Batch {
	n, ng := len(a.counts), len(a.groupBy)
	if n == 0 {
		return nil
	}
	vs, out := make([]vector.Vector, len(a.schema)), &vector.Batch{Cols: make([]*vector.Vector, len(a.schema))}
	for c := range vs {
		vs[c].Type, out.Cols[c] = a.schema[c].Type, &vs[c]
	}
	for k := range ng {
		vs[k].Int64s = a.keys[k]
	}
	cs := a.child.Schema()
	for si, s := range a.specs {
		o, dst := a.owner(si), &vs[ng+si]
		switch {
		case s.Func == Count:
			dst.Int64s = a.counts
		case dst.Type == vector.Int64: // MIN, MAX, SUM; extend covers an ungrouped aggregate over no batch
			dst.Int64s = extend(a.vals[o].Int64s, n)
		case s.Func == Min || s.Func == Max:
			dst.Float64s = extend(a.vals[o].Float64s, n)
		case cs[s.Col].Type == vector.Int64: // AVG
			dst.Float64s = make([]float64, n)
			for g, c := range a.counts {
				if c > 0 { // 0 only in an ungrouped aggregate over no rows
					dst.Float64s[g] = float64(a.vals[o].Int64s[g]) / float64(c)
				}
			}
		default: // SUM, AVG, SUMERR, MERGESUM over DOUBLE
			dst.Float64s = make([]float64, n)
			sums := a.exact(o)
			for g, c := range a.counts {
				switch {
				case s.Func == SumErr:
					_, dst.Float64s[g] = sums[g].compress()
				case s.Func != Avg:
					dst.Float64s[g] = sums[g].round()
				case c > 0: // 0 only in an ungrouped aggregate over no rows
					dst.Float64s[g] = sums[g].round() / float64(c)
				}
			}
		}
	}
	return out
}

// pass returns batch b as one-row partials, copying nothing: its group and
// value columns under its selection, with a COUNT of 1 and a SUMERR of 0 for
// every row.
func (a *Aggregate) pass(b *vector.Batch) *vector.Batch {
	if n := b.Len(); a.passed == nil || n > cap(a.ones.Int64s) {
		c := max(n, vector.DefaultBatchSize)
		a.passed = &vector.Batch{Cols: make([]*vector.Vector, len(a.schema))}
		a.ones = &vector.Vector{Type: vector.Int64, Int64s: make([]int64, c)}
		a.noErr = &vector.Vector{Type: vector.Float64, Float64s: make([]float64, c)}
		for i := range c {
			a.ones.Int64s[i] = 1
		}
	}
	n, ng := b.Len(), len(a.groupBy)
	a.ones.Int64s, a.noErr.Float64s = a.ones.Int64s[:n], a.noErr.Float64s[:n]
	for k, g := range a.groupBy {
		a.passed.Cols[k] = b.Cols[g]
	}
	for si, s := range a.specs {
		switch s.Func {
		case Count:
			a.passed.Cols[ng+si] = a.ones
		case SumErr:
			a.passed.Cols[ng+si] = a.noErr
		default:
			a.passed.Cols[ng+si] = b.Cols[s.Col]
		}
	}
	a.passed.Sel = b.Sel
	return a.passed
}

// Close implements Operator.
func (a *Aggregate) Close() error { return a.child.Close() }
