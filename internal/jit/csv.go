package jit

import (
	"fmt"

	"rawdb/internal/bytesconv"
	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/insitu"
	"rawdb/internal/posmap"
	"rawdb/internal/storage/csvfile"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

// rowStep is one unrolled action of a sequential JIT CSV scan: it consumes
// part of the current row starting at pos and returns the next position.
// The chain of steps for one row is fixed at construction — the "generated
// code" — so the per-row inner loop carries no type switches, no column
// loop conditions and no catalog lookups.
type rowStep func(pos int) int

// CSVScan is the sequential JIT access path over a CSV file: the first query
// parses it front to back, optionally building a positional map; later
// queries jump through that map (NewCSVMapScan, a RowScan over CSVLateFetch).
// NewCSVSequentialScanPush additionally inlines pushed-down predicates and
// synopsis building into the generated code.
type CSVScan struct {
	schema    vector.Schema
	batchSize int
	data      []byte
	steps     []rowStep
	buildPM   *posmap.Map
	scratch   []int64
	err       error
	// failSteps mirrors steps with structural-only actions (delimiter skips
	// and positional-map recordings, no conversions): when a pushed-down
	// predicate fails mid-row, the remainder of the row is completed through
	// this chain — the "short-circuit the rest of the row" path.
	failSteps []rowStep
	failed    bool
	hasPreds  bool
	nneed     int
	syn       *synopsis.Builder
	// rowsPruned counts the rows pushed-down predicates short-circuited.
	rowsPruned int64

	emitRID bool
	ridSlot int
	pos     int
	row     int64
	out     *vector.Batch
}

// PushStats reports how many rows pushed-down predicates short-circuited (a
// sequential scan skips no range).
func (s *CSVScan) PushStats() (rowsPruned, blocksSkipped int64) {
	return s.rowsPruned, 0
}

// NewCSVSequentialScan generates a sequential access path: one specialised
// step chain per row covering exactly the requested columns, positional-map
// recordings and skips, with conversion functions resolved per column.
func NewCSVSequentialScan(data []byte, t *catalog.Table, need []int,
	buildPM *posmap.Map, emitRID bool, batchSize int) (*CSVScan, error) {
	return NewCSVSequentialScanPush(data, t, need, buildPM, emitRID, batchSize, Pushdown{})
}

// NewCSVSequentialScanPush generates a sequential access path with pushed-
// down predicates inlined into the step chain: predicate columns are tested
// as soon as their field is parsed, and a failing row short-circuits into a
// structural-only chain that completes positional-map recordings via
// delimiter scans without converting another value. Synopsis accumulators
// (opts.Syn) observe parsed values inline. opts.Skip is ignored (a
// sequential scan must visit every row to build its side-effect structures).
func NewCSVSequentialScanPush(data []byte, t *catalog.Table, need []int,
	buildPM *posmap.Map, emitRID bool, batchSize int, opts Pushdown) (*CSVScan, error) {
	if t.Format != catalog.CSV {
		return nil, fmt.Errorf("jit: csv scan got format %s", t.Format)
	}
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	schema, err := scanSchema(t, need, emitRID)
	if err != nil {
		return nil, err
	}
	if _, err := bindPreds(schema, need, opts.Preds); err != nil {
		return nil, err
	}
	s := &CSVScan{
		data:      data,
		schema:    schema,
		batchSize: batchSize,
		buildPM:   buildPM,
		emitRID:   emitRID,
		ridSlot:   len(need),
		nneed:     len(need),
		hasPreds:  len(opts.Preds) > 0,
		syn:       opts.Syn,
	}
	s.out = vector.NewBatch(schema.Types(), batchSize)

	// "Unroll the column loop": walk the table's columns once at
	// construction and emit exactly one step per action, merging runs of
	// uninteresting columns into single skip steps.
	needSlot := make(map[int]int, len(need))
	for i, c := range need {
		needSlot[c] = i
	}
	trackSet := make(map[int]bool)
	var trackIdx int
	if buildPM != nil {
		for _, c := range buildPM.TrackedColumns() {
			trackSet[c] = true
		}
		s.scratch = make([]int64, len(buildPM.TrackedColumns()))
	}
	ncols := len(t.Schema)
	pending := 0 // uninteresting columns accumulated into one skip
	flushSkip := func() {
		if pending == 0 {
			return
		}
		n := pending
		pending = 0
		data := s.data
		st := func(pos int) int {
			return csvfile.SkipFields(data, pos, n)
		}
		s.steps = append(s.steps, st)
		s.failSteps = append(s.failSteps, st)
	}
	skipOne := func(pos int) int {
		return csvfile.SkipFields(data, pos, 1)
	}
	for c := 0; c < ncols; c++ {
		record := trackSet[c]
		slot, read := needSlot[c]
		if !record && !read {
			pending++
			continue
		}
		flushSkip()
		if record {
			ti := trackIdx
			trackIdx++
			st := func(pos int) int {
				s.scratch[ti] = int64(pos)
				return pos
			}
			s.steps = append(s.steps, st)
			s.failSteps = append(s.failSteps, st)
		}
		if !read {
			pending++
			continue
		}
		// Conversion function, synopsis accumulator and inlined predicate
		// check all resolved now, not per field.
		acc := opts.Syn.Acc(c)
		switch t.Schema[c].Type {
		case vector.Int64:
			out := s.out.Cols[slot]
			data := s.data
			test := intPredTest(predsFor(opts.Preds, c))
			s.steps = append(s.steps, func(pos int) int {
				start, end, next := csvfile.FieldBounds(data, pos)
				v, err := bytesconv.ParseInt64(data[start:end])
				if err != nil {
					s.err = fmt.Errorf("jit csv scan: row %d: %w", s.row, err)
					return len(data)
				}
				if acc != nil {
					acc.ObserveInt64(v)
				}
				out.Int64s = append(out.Int64s, v)
				if test != nil && !test(v) {
					s.failed = true
				}
				return next
			})
		case vector.Float64:
			out := s.out.Cols[slot]
			data := s.data
			test := floatPredTest(predsFor(opts.Preds, c))
			s.steps = append(s.steps, func(pos int) int {
				start, end, next := csvfile.FieldBounds(data, pos)
				v, err := bytesconv.ParseFloat64(data[start:end])
				if err != nil {
					s.err = fmt.Errorf("jit csv scan: row %d: %w", s.row, err)
					return len(data)
				}
				if acc != nil {
					acc.ObserveFloat64(v)
				}
				out.Float64s = append(out.Float64s, v)
				if test != nil && !test(v) {
					s.failed = true
				}
				return next
			})
		default:
			return nil, fmt.Errorf("jit: unsupported CSV column type %s", t.Schema[c].Type)
		}
		s.failSteps = append(s.failSteps, skipOne)
	}
	// Trailing uninteresting columns need no field count: one newline search
	// lands the cursor on the next row start. (When the last column is read,
	// its parse consumes the row's newline instead.)
	if pending > 0 {
		st := func(pos int) int { return csvfile.SkipRow(data, pos) }
		s.steps = append(s.steps, st)
		s.failSteps = append(s.failSteps, st)
	}
	return s, nil
}

// NewCSVMapScan generates a ViaMap access path: a RowScan over CSVLateFetch,
// which resolves once, per column, which tracked column to jump from and how
// many fields to skip.
func NewCSVMapScan(data []byte, t *catalog.Table, need []int, pm *posmap.Map,
	emitRID bool, batchSize int) (*RowScan, error) {
	return NewCSVMapScanPush(data, t, need, pm, emitRID, batchSize, Pushdown{})
}

// NewCSVMapScanPush generates a ViaMap access path with pushdown (see
// RowScan): opts.Preds select rows before the remaining columns are parsed,
// and opts.Skip excludes whole batch ranges via zone maps before any field is
// touched. opts.Syn is ignored: the fetch observes nothing.
func NewCSVMapScanPush(data []byte, t *catalog.Table, need []int, pm *posmap.Map,
	emitRID bool, batchSize int, opts Pushdown) (*RowScan, error) {
	if t.Format != catalog.CSV {
		return nil, fmt.Errorf("jit: csv scan got format %s", t.Format)
	}
	if pm == nil || pm.NRows() == 0 {
		return nil, fmt.Errorf("jit: map scan requires a populated positional map")
	}
	opts.Syn = nil
	return newRowScan(t, need, pm.NRows(), emitRID, batchSize, opts, nil, func(cols []int) (exec.Fetch, error) {
		return CSVLateFetch(data, t, cols, pm)
	})
}

func scanSchema(t *catalog.Table, need []int, emitRID bool) (vector.Schema, error) {
	schema, err := appendSchema(make(vector.Schema, 0, len(need)+1), t, need)
	if err == nil && emitRID {
		schema = append(schema, vector.Col{Name: insitu.RowIDColumn, Type: vector.Int64})
	}
	return schema, err
}

// appendSchema appends columns cols of t to schema.
func appendSchema(schema vector.Schema, t *catalog.Table, cols []int) (vector.Schema, error) {
	for _, c := range cols {
		if err := columnInRange(t, c); err != nil {
			return nil, err
		}
		schema = append(schema, vector.Col{Name: t.Schema[c].Name, Type: t.Schema[c].Type})
	}
	return schema, nil
}

// columnInRange fails when c is no column of t.
func columnInRange(t *catalog.Table, c int) error {
	if c < 0 || c >= len(t.Schema) {
		return fmt.Errorf("jit: column index %d out of range for table %q", c, t.Name)
	}
	return nil
}

// Schema implements exec.Operator.
func (s *CSVScan) Schema() vector.Schema { return s.schema }

// Open implements exec.Operator.
func (s *CSVScan) Open() error {
	s.pos = 0
	s.row = 0
	s.err = nil
	s.failed = false
	return nil
}

// Next implements exec.Operator.
func (s *CSVScan) Next() (*vector.Batch, error) {
	s.out.Reset()
	data := s.data
	steps := s.steps
	n := 0
	for n < s.batchSize && s.pos < len(data) {
		pos := s.pos
		if s.hasPreds {
			// The generated row body with inlined predicate checks: a failing
			// check diverts the remainder of the row onto the structural-only
			// chain, so no further value is converted.
			failed := false
			for si, st := range steps {
				pos = st(pos)
				if s.failed {
					s.failed = false
					for _, fs := range s.failSteps[si+1:] {
						pos = fs(pos)
					}
					failed = true
					break
				}
			}
			if s.err != nil {
				return nil, s.err
			}
			s.pos = pos
			if s.syn != nil {
				s.syn.Advance(1)
			}
			if s.buildPM != nil {
				s.buildPM.AppendRow(s.scratch)
			}
			if failed {
				// Roll back the values the row appended before it failed.
				for i := 0; i < s.nneed; i++ {
					s.out.Cols[i].Truncate(n)
				}
				s.rowsPruned++
				s.row++
				continue
			}
			if s.emitRID {
				s.out.Cols[s.ridSlot].AppendInt64(s.row)
			}
			s.row++
			n++
			continue
		}
		// The generated straight-line row body.
		for _, st := range steps {
			pos = st(pos)
		}
		if s.err != nil {
			return nil, s.err
		}
		s.pos = pos
		if s.syn != nil {
			s.syn.Advance(1)
		}
		if s.buildPM != nil {
			s.buildPM.AppendRow(s.scratch)
		}
		if s.emitRID {
			s.out.Cols[s.ridSlot].AppendInt64(s.row)
		}
		s.row++
		n++
	}
	if n == 0 {
		return nil, nil
	}
	return s.out, nil
}

// Close implements exec.Operator.
func (s *CSVScan) Close() error { return nil }

var _ exec.Operator = (*CSVScan)(nil)
