// Package vector provides the typed column vectors and row batches that form
// the vectorized execution substrate of the engine.
//
// The paper builds RAW on Google's Supersonic library of cache-conscious
// columnar operators. This package is our from-scratch substitute: fixed-size
// batches of densely packed, typed column vectors that operators pass by
// reference, amortising per-tuple interpretation cost over a batch (the
// MonetDB/X100 vectorized model the paper adopts).
package vector

import "fmt"

// Type identifies the physical type of a column vector.
type Type uint8

// Physical column types supported by the engine. The paper's workloads use
// integers and floating-point numbers; Bool and Bytes support predicates and
// textual fields.
const (
	Int64 Type = iota
	Float64
	Bool
	Bytes
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case Bool:
		return "BOOLEAN"
	case Bytes:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Width returns the fixed on-disk width in bytes of the type in the binary
// file format, or 0 for variable-width types.
func (t Type) Width() int {
	switch t {
	case Int64, Float64:
		return 8
	case Bool:
		return 1
	default:
		return 0
	}
}

// DefaultBatchSize is the number of rows operators exchange per Next() call.
// 1024 keeps a handful of live vectors inside L1/L2, the sizing rationale of
// MonetDB/X100 that the paper cites.
const DefaultBatchSize = 1024

// Vector is a densely packed column of values of a single type. Exactly one
// of the payload slices is in use, selected by Type; accessing the others is
// a programming error. Payload slices are exported so inner loops in scan
// and filter operators can range over them without call overhead.
type Vector struct {
	Type     Type
	Int64s   []int64
	Float64s []float64
	Bools    []bool
	Bytess   [][]byte
}

// New returns an empty vector of type t with capacity for capRows values.
func New(t Type, capRows int) *Vector {
	v := &Vector{Type: t}
	switch t {
	case Int64:
		v.Int64s = make([]int64, 0, capRows)
	case Float64:
		v.Float64s = make([]float64, 0, capRows)
	case Bool:
		v.Bools = make([]bool, 0, capRows)
	case Bytes:
		v.Bytess = make([][]byte, 0, capRows)
	}
	return v
}

// Len returns the number of values in the vector.
func (v *Vector) Len() int {
	switch v.Type {
	case Int64:
		return len(v.Int64s)
	case Float64:
		return len(v.Float64s)
	case Bool:
		return len(v.Bools)
	case Bytes:
		return len(v.Bytess)
	default:
		return 0
	}
}

// Reset truncates the vector to zero length, retaining capacity.
func (v *Vector) Reset() {
	v.Int64s = v.Int64s[:0]
	v.Float64s = v.Float64s[:0]
	v.Bools = v.Bools[:0]
	v.Bytess = v.Bytess[:0]
}

// Truncate shortens the vector to n values (a no-op when it is already at or
// below n). Scans with pushed-down predicates use it to roll back the partial
// row appended before a predicate failed.
func (v *Vector) Truncate(n int) {
	switch v.Type {
	case Int64:
		if len(v.Int64s) > n {
			v.Int64s = v.Int64s[:n]
		}
	case Float64:
		if len(v.Float64s) > n {
			v.Float64s = v.Float64s[:n]
		}
	case Bool:
		if len(v.Bools) > n {
			v.Bools = v.Bools[:n]
		}
	case Bytes:
		if len(v.Bytess) > n {
			v.Bytess = v.Bytess[:n]
		}
	}
}

// Extend grows the vector by n rows of unspecified value and returns the
// index of the first new row. Selective scans extend a column to a batch's
// full physical length and then write only the selected positions; rows
// outside the selection are never read (the Batch.Sel contract).
func (v *Vector) Extend(n int) int {
	switch v.Type {
	case Int64:
		base := len(v.Int64s)
		if cap(v.Int64s)-base >= n {
			v.Int64s = v.Int64s[:base+n]
		} else {
			v.Int64s = append(v.Int64s, make([]int64, n)...)
		}
		return base
	case Float64:
		base := len(v.Float64s)
		if cap(v.Float64s)-base >= n {
			v.Float64s = v.Float64s[:base+n]
		} else {
			v.Float64s = append(v.Float64s, make([]float64, n)...)
		}
		return base
	case Bool:
		base := len(v.Bools)
		if cap(v.Bools)-base >= n {
			v.Bools = v.Bools[:base+n]
		} else {
			v.Bools = append(v.Bools, make([]bool, n)...)
		}
		return base
	default:
		base := len(v.Bytess)
		if cap(v.Bytess)-base >= n {
			v.Bytess = v.Bytess[:base+n]
		} else {
			v.Bytess = append(v.Bytess, make([][]byte, n)...)
		}
		return base
	}
}

// Clip reallocates the payload when its spare capacity exceeds 1/32 of its
// length, so a vector built by appending (or into a generous reservation)
// and then kept does not hold the slack for its lifetime.
func (v *Vector) Clip() {
	v.Int64s = clip(v.Int64s)
	v.Float64s = clip(v.Float64s)
	v.Bools = clip(v.Bools)
	v.Bytess = clip(v.Bytess)
}

func clip[T any](s []T) []T {
	if cap(s)-len(s) <= len(s)/32 {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// AppendInt64 appends x. The vector must have type Int64.
func (v *Vector) AppendInt64(x int64) { v.Int64s = append(v.Int64s, x) }

// AppendFloat64 appends x. The vector must have type Float64.
func (v *Vector) AppendFloat64(x float64) { v.Float64s = append(v.Float64s, x) }

// AppendBool appends x. The vector must have type Bool.
func (v *Vector) AppendBool(x bool) { v.Bools = append(v.Bools, x) }

// AppendBytes appends x without copying. The vector must have type Bytes.
func (v *Vector) AppendBytes(x []byte) { v.Bytess = append(v.Bytess, x) }

// Value returns the i-th value boxed in an interface. It is intended for
// result presentation and tests, not for hot paths.
func (v *Vector) Value(i int) any {
	switch v.Type {
	case Int64:
		return v.Int64s[i]
	case Float64:
		return v.Float64s[i]
	case Bool:
		return v.Bools[i]
	case Bytes:
		return string(v.Bytess[i])
	default:
		return nil
	}
}

// AppendValue appends a boxed value of the vector's type. Intended for tests
// and loaders outside hot paths.
func (v *Vector) AppendValue(x any) error {
	switch v.Type {
	case Int64:
		xv, ok := x.(int64)
		if !ok {
			return fmt.Errorf("vector: cannot append %T to %s column", x, v.Type)
		}
		v.AppendInt64(xv)
	case Float64:
		xv, ok := x.(float64)
		if !ok {
			return fmt.Errorf("vector: cannot append %T to %s column", x, v.Type)
		}
		v.AppendFloat64(xv)
	case Bool:
		xv, ok := x.(bool)
		if !ok {
			return fmt.Errorf("vector: cannot append %T to %s column", x, v.Type)
		}
		v.AppendBool(xv)
	case Bytes:
		switch xv := x.(type) {
		case []byte:
			v.AppendBytes(xv)
		case string:
			v.AppendBytes([]byte(xv))
		default:
			return fmt.Errorf("vector: cannot append %T to %s column", x, v.Type)
		}
	}
	return nil
}

// Gather appends the values of src at positions idx to v. Both vectors must
// share a type. It is the compaction primitive used by filters and late
// (shred) scans.
func (v *Vector) Gather(src *Vector, idx []int32) {
	switch v.Type {
	case Int64:
		s := src.Int64s
		for _, i := range idx {
			v.Int64s = append(v.Int64s, s[i])
		}
	case Float64:
		s := src.Float64s
		for _, i := range idx {
			v.Float64s = append(v.Float64s, s[i])
		}
	case Bool:
		s := src.Bools
		for _, i := range idx {
			v.Bools = append(v.Bools, s[i])
		}
	case Bytes:
		s := src.Bytess
		for _, i := range idx {
			v.Bytess = append(v.Bytess, s[i])
		}
	}
}

// AppendVector appends all values of src to v. Both must share a type.
func (v *Vector) AppendVector(src *Vector) {
	switch v.Type {
	case Int64:
		v.Int64s = append(v.Int64s, src.Int64s...)
	case Float64:
		v.Float64s = append(v.Float64s, src.Float64s...)
	case Bool:
		v.Bools = append(v.Bools, src.Bools...)
	case Bytes:
		v.Bytess = append(v.Bytess, src.Bytess...)
	}
}

// Slice returns a new vector aliasing rows [from, to) of v.
func (v *Vector) Slice(from, to int) *Vector {
	out := &Vector{Type: v.Type}
	switch v.Type {
	case Int64:
		out.Int64s = v.Int64s[from:to]
	case Float64:
		out.Float64s = v.Float64s[from:to]
	case Bool:
		out.Bools = v.Bools[from:to]
	case Bytes:
		out.Bytess = v.Bytess[from:to]
	}
	return out
}

// Batch is a horizontal slice of a table: one vector per column, all of equal
// length. Hidden bookkeeping columns (row ids used by late scans) travel as
// ordinary Int64 vectors; the schema names distinguish them.
//
// Sel, when non-nil, is a selection vector in the MonetDB/X100 style: the
// ascending physical row indexes (into the column vectors) that are logically
// present. Columns keep their full physical length; rows outside Sel hold
// unspecified values and must not be read. A nil Sel means every physical row
// is live. Scans with pushed-down predicates and Filter emit Sel-carrying
// batches so qualifying rows never need to be compact-copied; operators that
// require dense row alignment (joins, late scans, captures) call Compact
// first, and Collect gathers through Sel when materialising results. Like the
// batch itself, Sel remains valid only until the producer's next Next call.
type Batch struct {
	Cols []*Vector
	Sel  []int32
}

// NewBatch returns a batch with one empty vector per type in types, each with
// capacity capRows.
func NewBatch(types []Type, capRows int) *Batch {
	b := &Batch{Cols: make([]*Vector, len(types))}
	for i, t := range types {
		b.Cols[i] = New(t, capRows)
	}
	return b
}

// Len returns the number of rows in the batch (the length of its first
// column; batches with no columns have zero rows).
func (b *Batch) Len() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// Reset truncates every column and clears the selection, retaining capacity.
func (b *Batch) Reset() {
	for _, c := range b.Cols {
		c.Reset()
	}
	b.Sel = nil
}

// Gather appends the rows of src at positions idx to b. Schemas must match.
func (b *Batch) Gather(src *Batch, idx []int32) {
	for i, c := range b.Cols {
		c.Gather(src.Cols[i], idx)
	}
}

// NewBatchLike returns an empty batch with one vector per column of b,
// matching types, each with capacity capRows.
func NewBatchLike(b *Batch, capRows int) *Batch {
	out := &Batch{Cols: make([]*Vector, len(b.Cols))}
	for i, c := range b.Cols {
		out.Cols[i] = New(c.Type, capRows)
	}
	return out
}

// Compact applies b's selection vector: it returns b unchanged when the batch
// is dense, and otherwise gathers the selected rows into dst (reset first)
// and returns dst. dst must have b's column types; pass the address of a nil
// batch pointer owned by the caller to have it allocated on first use.
func (b *Batch) Compact(dst **Batch) *Batch {
	if b.Sel == nil {
		return b
	}
	if *dst == nil {
		*dst = NewBatchLike(b, len(b.Sel))
	}
	d := *dst
	d.Reset()
	d.Gather(b, b.Sel)
	return d
}

// Col is one column of an operator's output schema.
type Col struct {
	Name string
	Type Type
}

// Schema is an ordered set of named, typed columns.
type Schema []Col

// IndexOf returns the position of the column named name, or -1.
func (s Schema) IndexOf(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Types returns the column types in order.
func (s Schema) Types() []Type {
	ts := make([]Type, len(s))
	for i, c := range s {
		ts[i] = c.Type
	}
	return ts
}
