package shred

import (
	"fmt"

	"rawdb/internal/exec"
	"rawdb/internal/insitu"
	"rawdb/internal/vector"
)

// NewScan streams full-column shreds as a base table scan (names align with
// shreds), optionally emitting the hidden row-id column: an exec.MemScan over
// their vectors. A scan served this way makes RAW "perform as if the data had
// been loaded in advance, but without any added cost to actually load the
// data".
func NewScan(shreds []*Shred, names []string, emitRID bool, batchSize int) (*exec.MemScan, error) {
	if len(names) != len(shreds) {
		return nil, fmt.Errorf("shred: %d names for %d shreds", len(names), len(shreds))
	}
	schema := make(vector.Schema, len(shreds), len(shreds)+1)
	vecs := make([]*vector.Vector, len(shreds))
	for i, sh := range shreds {
		if !sh.Full() {
			return nil, fmt.Errorf("shred: scan requires full columns, %s is partial", sh.Key())
		}
		vecs[i] = sh.Vector()
		schema[i] = vector.Col{Name: names[i], Type: vecs[i].Type}
	}
	if emitRID {
		schema = append(schema, vector.Col{Name: insitu.RowIDColumn, Type: vector.Int64})
	}
	return exec.NewMemScan(schema, vecs, batchSize)
}

// NewLateScan appends one column per shred (named by names) to child's
// batches, by the row ids in child's column ridIdx: a column-shred access
// path that touches no raw data at all. Every row id the child emits must be
// present in each shred. Each shred's merge cursor carries across batches.
func NewLateScan(child exec.Operator, ridIdx int, shreds []*Shred, names []string) (*exec.LateScan, error) {
	if len(names) != len(shreds) {
		return nil, fmt.Errorf("shred: %d names for %d shreds", len(names), len(shreds))
	}
	cs := child.Schema()
	schema := append(make(vector.Schema, 0, len(cs)+len(shreds)), cs...)
	for i, sh := range shreds {
		schema = append(schema, vector.Col{Name: names[i], Type: sh.Vector().Type})
	}
	cursors := make([]int, len(shreds))
	fetch := func(rids []int64, outs []*vector.Vector) error {
		for i, sh := range shreds {
			cur, err := sh.ExtractSeq(rids, outs[i], cursors[i])
			if err != nil {
				return err
			}
			cursors[i] = cur
		}
		return nil
	}
	return exec.NewLateScan(child, ridIdx, insitu.RowIDColumn, schema, fetch)
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
// effect, publishing them when the stream ends cleanly. This is how "RAW
// preserves a pool of column shreds populated as a side-effect of previous
// queries".
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
