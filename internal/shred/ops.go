package shred

import (
	"fmt"
	"slices"
	"sort"

	"rawdb/internal/exec"
	"rawdb/internal/insitu"
	"rawdb/internal/offsets"
	"rawdb/internal/vector"
)

// NewScan streams full-column shreds as a base table scan (names align with
// shreds), optionally emitting the hidden row-id column: an exec.MemScan over
// their columns. A scan served this way makes RAW "perform as if the data had
// been loaded in advance, but without any added cost to actually load the
// data".
func NewScan(shreds []*Shred, names []string, emitRID bool, batchSize int) (*exec.MemScan, error) {
	if len(names) != len(shreds) {
		return nil, fmt.Errorf("shred: %d names for %d shreds", len(names), len(shreds))
	}
	schema := make(vector.Schema, len(shreds), len(shreds)+1)
	cols := make([]exec.Column, len(shreds))
	for i, sh := range shreds {
		if !sh.Full() {
			return nil, fmt.Errorf("shred: scan requires full columns, %s is partial", sh.Key())
		}
		cols[i] = sh.Column()
		schema[i] = vector.Col{Name: names[i], Type: sh.Type()}
	}
	if emitRID {
		schema = append(schema, vector.Col{Name: insitu.RowIDColumn, Type: vector.Int64})
	}
	return exec.NewMemScanPred(schema, cols, emitRID, batchSize, nil, 0, nil)
}

// NewLateScan appends one column per shred (named by names) to child's
// batches, by the row ids in child's column ridIdx: a column-shred access
// path that touches no raw data at all, so every row id the child emits must
// be present in each shred.
func NewLateScan(child exec.Operator, ridIdx int, shreds []*Shred, names []string) (*exec.LateScan, error) {
	if len(names) != len(shreds) {
		return nil, fmt.Errorf("shred: %d names for %d shreds", len(names), len(shreds))
	}
	cols := make(vector.Schema, len(shreds))
	for i, sh := range shreds {
		cols[i] = vector.Col{Name: names[i], Type: sh.Type()}
	}
	return exec.NewLateScan(child, ridIdx, insitu.RowIDColumn, cols, NewLateFill(shreds, nil).Fetch)
}

// LateFill is the late fetch of cached columns, one shred each. A row id a
// shred holds is served from it, a batch's values in one gather; the ones it
// lacks are read by the column's raw fetch (the table's own late reader), all
// of a batch's in one call and in order, and written into their slots. A
// query a partial shred does not subsume therefore still runs on it, and only
// its missing rows touch raw bytes. The fill publishes nothing: the shreds
// stay as they were.
type LateFill struct {
	shreds []*Shred
	raw    []exec.Fetch // per shred; a nil (or absent) one makes a miss an error
	// cursors walk the partial shreds' row ids, carried across the batches
	// of a pass.
	cursors []rowCursor
	pos     []int64          // per row id of a batch, its position in one shred
	miss    []int64          // the row ids one shred lacks in one batch
	at      []int            // and their slots in the output
	got     []*vector.Vector // per shred, what its raw fetch returned
	// Filled counts the rows the shreds lacked and the raw fetches supplied.
	Filled int64
}

// NewLateFill fetches from shreds, completing shred i through raw[i].
func NewLateFill(shreds []*Shred, raw []exec.Fetch) *LateFill {
	f := &LateFill{shreds: shreds, raw: raw, cursors: make([]rowCursor, len(shreds)),
		got: make([]*vector.Vector, len(shreds))}
	for i, s := range shreds {
		f.cursors[i].rows = s.rows
	}
	return f
}

// Fetch is the exec.Fetch of the shreds' columns: outs[i] receives shred i's.
// Each batch's row ids are located in the shred first — a missing one takes
// position 0, and its slot is overwritten by the raw fetch — and the values
// at those positions gathered in one call.
func (f *LateFill) Fetch(rids []int64, outs []*vector.Vector) error {
	for i, s := range f.shreds {
		f.pos, f.miss, f.at = slices.Grow(f.pos[:0], len(rids)), f.miss[:0], f.at[:0]
		c, n := &f.cursors[i], int64(s.Len())
		for k, r := range rids {
			p := r
			if s.rows != nil {
				p = c.find(r)
			} else if r < 0 || r >= n {
				p = -1
			}
			if p < 0 {
				f.miss, f.at, p = append(f.miss, r), append(f.at, k), 0
			}
			f.pos = append(f.pos, p)
		}
		out := outs[i]
		switch {
		case len(f.miss) == len(rids):
			out.Extend(len(rids))
		case s.ints != nil:
			out.Int64s = s.ints.Gather(out.Int64s, f.pos)
		default:
			for _, p := range f.pos {
				appendAt(out, s.col.(exec.Flat).V, int(p))
			}
		}
		if len(f.miss) > 0 {
			if err := f.fill(i, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// rowCursor merges a batch's row ids with a partial shred's ascending ones,
// a chunk's span of them decoded at a time.
type rowCursor struct {
	rows *offsets.Column
	j    int64 // the merge position: the rows before it are below last
	last int64 // the row id asked for last
	lo   int64 // win[:n] holds the row ids at [lo, lo+n)
	n    int64
	win  [offsets.ChunkRows]int64
}

// find returns the position of row id r in the shred, or -1, and moves the
// merge past it. Row ids ascend within a pass: the merge steps over whole
// spans below r, reading only their last row id, and decodes the one r falls
// into. A row id not above the last one asked for (a new pass, or rows a
// join reordered) is searched for from the start.
func (c *rowCursor) find(r int64) int64 {
	n := c.rows.Len()
	if c.j > 0 && r <= c.last {
		c.j = int64(sort.Search(int(c.j), func(i int) bool { return c.rows.At(int64(i)) >= r }))
	}
	c.last = r
	for ; c.j < n; c.j++ {
		if c.j < c.lo || c.j >= c.lo+c.n {
			for c.j+offsets.ChunkRows < n && c.rows.At(c.j+offsets.ChunkRows-1) < r {
				c.j += offsets.ChunkRows
			}
			c.lo, c.n = c.j, int64(len(c.rows.Decode(c.win[:0], c.j, min(c.j+offsets.ChunkRows, n))))
		}
		if x := c.win[c.j-c.lo]; x >= r {
			if x > r {
				return -1
			}
			c.j++
			return c.j - 1
		}
	}
	return -1
}

// fill reads the rows shred i lacks in this batch through its raw fetch and
// writes them into their slots of out.
func (f *LateFill) fill(i int, out *vector.Vector) error {
	if i >= len(f.raw) || f.raw[i] == nil {
		return fmt.Errorf("shred: row id %d missing from %s", f.miss[0], f.shreds[i].key)
	}
	if f.got[i] == nil {
		f.got[i] = vector.New(out.Type, len(f.miss))
	}
	f.got[i].Reset()
	if err := f.raw[i](f.miss, f.got[i:i+1]); err != nil {
		return err
	}
	for m, at := range f.at {
		setAt(out, at, f.got[i], m)
	}
	f.Filled += int64(len(f.miss))
	return nil
}

// CaptureSpec directs a Capture operator to cache one column of its input.
type CaptureSpec struct {
	Key Key
	// ColIdx is the input column to cache.
	ColIdx int
	// RIDIdx is the input column carrying row ids; -1 declares the input
	// covers the full table in row order (a full-column capture).
	RIDIdx int
}

// Capture tees selected columns of the stream into the shred pool as a side
// effect, offering them to the pool when the stream ends cleanly — "RAW
// preserves a pool of column shreds populated as a side-effect of previous
// queries". It publishes during execution, so the engine does not use it: a
// query's captures reach the pool only once the query succeeded. It serves
// operator pipelines of its own, such as the benchmark's layer timings.
type Capture struct {
	child exec.Operator
	pool  *Pool
	specs []CaptureSpec

	bufs []*vector.Vector
	rids [][]int64
	done bool
}

// NewCapture validates specs against the child schema.
func NewCapture(child exec.Operator, pool *Pool, specs []CaptureSpec) (*Capture, error) {
	cs := child.Schema()
	for _, sp := range specs {
		if sp.ColIdx < 0 || sp.ColIdx >= len(cs) {
			return nil, fmt.Errorf("shred: capture column %d out of range", sp.ColIdx)
		}
		if sp.RIDIdx >= 0 && (sp.RIDIdx >= len(cs) || cs[sp.RIDIdx].Name != insitu.RowIDColumn) {
			return nil, fmt.Errorf("shred: capture rid column %d is not the row-id column", sp.RIDIdx)
		}
	}
	return &Capture{child: child, pool: pool, specs: specs}, nil
}

// Schema implements exec.Operator.
func (c *Capture) Schema() vector.Schema { return c.child.Schema() }

// Open implements exec.Operator.
func (c *Capture) Open() error {
	cs := c.child.Schema()
	c.bufs = make([]*vector.Vector, len(c.specs))
	c.rids = make([][]int64, len(c.specs))
	for i, sp := range c.specs {
		c.bufs[i] = vector.New(cs[sp.ColIdx].Type, vector.DefaultBatchSize)
	}
	c.done = false
	return c.child.Open()
}

// Next implements exec.Operator.
func (c *Capture) Next() (*vector.Batch, error) {
	b, err := c.child.Next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		if !c.done {
			c.publish()
			c.done = true
		}
		return nil, nil
	}
	for i, sp := range c.specs {
		if b.Sel != nil {
			// Selection-vector batch (a scan with pushed-down predicates):
			// capture only the surviving rows — the shred is then keyed by
			// exactly the row ids that flowed through the query.
			c.bufs[i].Gather(b.Cols[sp.ColIdx], b.Sel)
			if sp.RIDIdx >= 0 {
				rids := b.Cols[sp.RIDIdx].Int64s
				for _, si := range b.Sel {
					c.rids[i] = append(c.rids[i], rids[si])
				}
			}
			continue
		}
		c.bufs[i].AppendVector(b.Cols[sp.ColIdx])
		if sp.RIDIdx >= 0 {
			c.rids[i] = append(c.rids[i], b.Cols[sp.RIDIdx].Int64s...)
		}
	}
	return b, nil
}

func (c *Capture) publish() {
	for i, sp := range c.specs {
		var rids []int64
		if sp.RIDIdx >= 0 {
			rids = c.rids[i]
			if rids == nil {
				// Zero rows flowed through (the filter below matched
				// nothing): publish an EMPTY PARTIAL shred, never a nil-rid
				// one — nil means "full column", and an empty vector cached
				// as the full column would erase the column for every later
				// query.
				rids = []int64{}
			}
		}
		c.pool.Put(sp.Key, rids, c.bufs[i])
	}
}

// Close implements exec.Operator.
func (c *Capture) Close() error { return c.child.Close() }

var _ exec.Operator = (*Capture)(nil)
