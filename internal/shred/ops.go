package shred

import (
	"fmt"

	"rawdb/internal/exec"
	"rawdb/internal/insitu"
	"rawdb/internal/vector"
)

// Scan streams cached full columns as a base table scan, optionally emitting
// the hidden row-id column. The planner uses it when the shred pool already
// holds every column a scan would otherwise read from the raw file — the
// situation that makes RAW "perform as if the data had been loaded in
// advance, but without any added cost to actually load the data".
type Scan struct {
	schema    vector.Schema
	shreds    []*Shred
	nrows     int64
	batchSize int
	emitRID   bool

	// Pushed-down conjuncts (Col = output slot) evaluated vectorized per
	// batch; qualifying rows are marked with a selection vector rather than
	// compact-copied.
	preds      []exec.Pred
	sel        []int32
	rowsPruned int64

	row int64
	out *vector.Batch
}

// NewScanPred builds a scan over full-column shreds with bound predicates
// (Col names the output slot, which follows the shreds order).
func NewScanPred(shreds []*Shred, names []string, emitRID bool, batchSize int,
	preds []exec.Pred) (*Scan, error) {
	s, err := NewScan(shreds, names, emitRID, batchSize)
	if err != nil {
		return nil, err
	}
	for _, p := range preds {
		if p.Col < 0 || p.Col >= len(shreds) {
			return nil, fmt.Errorf("shred: scan predicate column %d out of range", p.Col)
		}
		switch shreds[p.Col].Vector().Type {
		case vector.Int64, vector.Float64:
		default:
			return nil, fmt.Errorf("shred: scan predicate on %s column", shreds[p.Col].Vector().Type)
		}
	}
	s.preds = preds
	return s, nil
}

// RowsPruned reports how many rows the pushed-down predicates eliminated
// inside the scan so far.
func (s *Scan) RowsPruned() int64 { return s.rowsPruned }

// NewScan builds a scan over full-column shreds. names provides the output
// column names aligned with shreds.
func NewScan(shreds []*Shred, names []string, emitRID bool, batchSize int) (*Scan, error) {
	if len(shreds) == 0 {
		return nil, fmt.Errorf("shred: scan needs at least one column")
	}
	if len(names) != len(shreds) {
		return nil, fmt.Errorf("shred: %d names for %d shreds", len(names), len(shreds))
	}
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	s := &Scan{batchSize: batchSize, emitRID: emitRID}
	for i, sh := range shreds {
		if !sh.Full() {
			return nil, fmt.Errorf("shred: scan requires full columns, %s is partial", sh.Key())
		}
		if i == 0 {
			s.nrows = int64(sh.Len())
		} else if int64(sh.Len()) != s.nrows {
			return nil, fmt.Errorf("shred: ragged cached columns (%d vs %d rows)", sh.Len(), s.nrows)
		}
		s.schema = append(s.schema, vector.Col{Name: names[i], Type: sh.Vector().Type})
	}
	s.shreds = shreds
	if emitRID {
		s.schema = append(s.schema, vector.Col{Name: insitu.RowIDColumn, Type: vector.Int64})
	}
	return s, nil
}

// Schema implements exec.Operator.
func (s *Scan) Schema() vector.Schema { return s.schema }

// Open implements exec.Operator.
func (s *Scan) Open() error {
	s.row = 0
	return nil
}

// Next implements exec.Operator.
func (s *Scan) Next() (*vector.Batch, error) {
	for {
		if s.row >= s.nrows {
			return nil, nil
		}
		end := s.row + int64(s.batchSize)
		if end > s.nrows {
			end = s.nrows
		}
		if s.out == nil {
			ncols := len(s.shreds)
			if s.emitRID {
				ncols++
			}
			s.out = &vector.Batch{Cols: make([]*vector.Vector, ncols)}
			if s.emitRID {
				s.out.Cols[ncols-1] = vector.New(vector.Int64, s.batchSize)
			}
		}
		for i, sh := range s.shreds {
			s.out.Cols[i] = sh.Vector().Slice(int(s.row), int(end))
		}
		if s.emitRID {
			rid := s.out.Cols[len(s.shreds)]
			rid.Reset()
			for i := s.row; i < end; i++ {
				rid.AppendInt64(i)
			}
		}
		s.out.Sel = nil
		m := int(end - s.row)
		s.row = end
		if len(s.preds) > 0 {
			s.sel = exec.SelectPred(s.sel[:0], s.out.Cols[s.preds[0].Col], s.preds[0], m)
			for _, p := range s.preds[1:] {
				if len(s.sel) == 0 {
					break
				}
				s.sel = exec.RefinePred(s.sel, s.out.Cols[p.Col], p)
			}
			s.rowsPruned += int64(m - len(s.sel))
			if len(s.sel) == 0 {
				continue // fully filtered range: advance to the next one
			}
			if len(s.sel) < m {
				s.out.Sel = s.sel
			}
		}
		return s.out, nil
	}
}

// Close implements exec.Operator.
func (s *Scan) Close() error { return nil }

// LateScan appends columns served from cached shreds for the row ids carried
// by its child — a column-shred access path that touches no raw data at all.
type LateScan struct {
	child   exec.Operator
	ridIdx  int
	schema  vector.Schema
	shreds  []*Shred
	newCols []*vector.Vector
	cursors []int // per-shred merge cursor carried across batches
	scratch *vector.Batch
	out     vector.Batch
}

// NewLateScan wraps child, appending one column per shred (named by names).
// Every row id the child emits must be present in each shred.
func NewLateScan(child exec.Operator, ridIdx int, shreds []*Shred, names []string) (*LateScan, error) {
	cs := child.Schema()
	if ridIdx < 0 || ridIdx >= len(cs) || cs[ridIdx].Name != insitu.RowIDColumn {
		return nil, fmt.Errorf("shred: late scan: column %d of child is not the row-id column", ridIdx)
	}
	if len(names) != len(shreds) {
		return nil, fmt.Errorf("shred: %d names for %d shreds", len(names), len(shreds))
	}
	s := &LateScan{child: child, ridIdx: ridIdx, shreds: shreds}
	s.schema = append(s.schema, cs...)
	for i, sh := range shreds {
		s.schema = append(s.schema, vector.Col{Name: names[i], Type: sh.Vector().Type})
		s.newCols = append(s.newCols, vector.New(sh.Vector().Type, vector.DefaultBatchSize))
	}
	return s, nil
}

// Schema implements exec.Operator.
func (s *LateScan) Schema() vector.Schema { return s.schema }

// Open implements exec.Operator.
func (s *LateScan) Open() error {
	s.cursors = make([]int, len(s.shreds))
	return s.child.Open()
}

// Next implements exec.Operator.
func (s *LateScan) Next() (*vector.Batch, error) {
	b, err := s.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	// Appended columns align physically with the child's rows, so a
	// selection-vector batch is densified here: only surviving row ids reach
	// the shreds (partial shreds hold exactly those rows).
	b = b.Compact(&s.scratch)
	rids := b.Cols[s.ridIdx].Int64s
	for i, sh := range s.shreds {
		s.newCols[i].Reset()
		cur, err := sh.ExtractSeq(rids, s.newCols[i], s.cursors[i])
		if err != nil {
			return nil, err
		}
		s.cursors[i] = cur
	}
	s.out.Cols = s.out.Cols[:0]
	s.out.Cols = append(s.out.Cols, b.Cols...)
	s.out.Cols = append(s.out.Cols, s.newCols...)
	return &s.out, nil
}

// Close implements exec.Operator.
func (s *LateScan) Close() error { return s.child.Close() }

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

var (
	_ exec.Operator = (*Scan)(nil)
	_ exec.Operator = (*LateScan)(nil)
	_ exec.Operator = (*Capture)(nil)
)
