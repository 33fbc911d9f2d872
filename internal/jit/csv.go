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

// colReader reads the values of one column for rows [rowStart, rowEnd) into
// out, using a positional map column captured at construction. It is the
// vectorized, column-at-a-time body of a ViaMap JIT scan. A non-nil sel
// restricts the read to the selected batch rows: the vector is extended to
// the full physical range and only the selected positions are written (the
// selection-vector contract of vector.Batch).
type colReader func(rowStart, rowEnd int64, sel []int32, out *vector.Vector) error

// CSVScan is a JIT access path over a CSV file. Construct it with
// NewCSVSequentialScan (first query: parse front-to-back, optionally
// building a positional map) or NewCSVMapScan (later queries: jump via the
// positional map, column at a time). The *Push constructors additionally
// inline pushed-down predicates, zone-map skip tests and synopsis building
// into the generated code.
type CSVScan struct {
	schema    vector.Schema
	batchSize int

	// Sequential mode.
	data    []byte
	steps   []rowStep
	buildPM *posmap.Map
	scratch []int64
	err     error
	// failSteps mirrors steps with structural-only actions (delimiter skips
	// and positional-map recordings, no conversions): when a pushed-down
	// predicate fails mid-row, the remainder of the row is completed through
	// this chain — the "short-circuit the rest of the row" path.
	failSteps []rowStep
	failed    bool
	hasPreds  bool
	nneed     int
	syn       *synopsis.Builder

	// ViaMap mode.
	readers []colReader
	// predReaders run first (dense) and feed the vectorized conjunction;
	// the remaining readers honour the resulting selection.
	predReaders []int // indexes into readers, in evaluation order
	restReaders []int
	predEval    []slotPred
	selBuf      []int32
	skip        func(start, end int64) bool
	nrows       int64

	// Pushdown statistics.
	rowsPruned    int64
	blocksSkipped int64

	// Row range [rngStart, rngEnd) restricts a ViaMap scan to a morsel of
	// the file; the zero rngEnd means "to the last row".
	rngStart, rngEnd int64

	emitRID bool
	ridSlot int
	pos     int
	row     int64
	out     *vector.Batch
}

// SetRowRange restricts a ViaMap scan to rows [start, end), the row-morsel
// form used by parallel plans over an already-built positional map. The
// emitted row ids stay absolute.
func (s *CSVScan) SetRowRange(start, end int64) error {
	if s.readers == nil {
		return fmt.Errorf("jit: row ranges require a via-map csv scan")
	}
	if start < 0 || end < start || end > s.nrows {
		return fmt.Errorf("jit: row range [%d,%d) outside 0..%d", start, end, s.nrows)
	}
	s.rngStart, s.rngEnd = start, end
	return nil
}

// PushStats reports how many rows pushed-down predicates short-circuited and
// how many batch ranges zone-map skip tests excluded inside this scan.
func (s *CSVScan) PushStats() (rowsPruned, blocksSkipped int64) {
	return s.rowsPruned, s.blocksSkipped
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
	if err := validatePreds(t, need, opts.Preds); err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	schema, err := scanSchema(t, need, emitRID)
	if err != nil {
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

// NewCSVMapScan generates a ViaMap access path: for each requested column the
// generator resolves, once, which tracked column to jump from and how many
// fields to skip, then emits a monomorphic column reader. Execution is
// column-at-a-time over each batch's row range.
func NewCSVMapScan(data []byte, t *catalog.Table, need []int, pm *posmap.Map,
	emitRID bool, batchSize int) (*CSVScan, error) {
	return NewCSVMapScanPush(data, t, need, pm, emitRID, batchSize, Pushdown{})
}

// NewCSVMapScanPush generates a ViaMap access path with pushdown: predicate
// columns are read first (dense), the conjunction is evaluated vectorized,
// and the remaining columns are parsed only for qualifying rows; emitted
// batches carry a selection vector. opts.Skip excludes whole batch ranges
// via zone maps before any field is touched.
func NewCSVMapScanPush(data []byte, t *catalog.Table, need []int, pm *posmap.Map,
	emitRID bool, batchSize int, opts Pushdown) (*CSVScan, error) {
	if t.Format != catalog.CSV {
		return nil, fmt.Errorf("jit: csv scan got format %s", t.Format)
	}
	if pm == nil || pm.NRows() == 0 {
		return nil, fmt.Errorf("jit: map scan requires a populated positional map")
	}
	if err := validatePreds(t, need, opts.Preds); err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	schema, err := scanSchema(t, need, emitRID)
	if err != nil {
		return nil, err
	}
	s := &CSVScan{
		data:      data,
		schema:    schema,
		batchSize: batchSize,
		nrows:     pm.NRows(),
		emitRID:   emitRID,
		ridSlot:   len(need),
		nneed:     len(need),
		skip:      opts.Skip,
	}
	s.out = vector.NewBatch(schema.Types(), batchSize)
	for i, c := range need {
		r, err := newCSVColReader(data, t, c, pm)
		if err != nil {
			return nil, err
		}
		s.readers = append(s.readers, r)
		if ps := predsFor(opts.Preds, c); len(ps) > 0 {
			s.predReaders = append(s.predReaders, i)
			for _, p := range ps {
				s.predEval = append(s.predEval, slotPred{slot: i, p: p})
			}
		} else {
			s.restReaders = append(s.restReaders, i)
		}
	}
	return s, nil
}

// newCSVColReader generates the reader for one column: jump positions and
// skip counts are resolved here, once, and captured as constants.
func newCSVColReader(data []byte, t *catalog.Table, c int, pm *posmap.Map) (colReader, error) {
	near, ok := pm.Nearest(c)
	if !ok {
		return nil, fmt.Errorf("jit: positional map cannot reach column %d", c)
	}
	positions := pm.Positions(near)
	skip := c - near
	typ := t.Schema[c].Type
	switch typ {
	case vector.Int64:
		if skip == 0 {
			return func(rowStart, rowEnd int64, sel []int32, out *vector.Vector) error {
				if sel != nil {
					base := out.Extend(int(rowEnd - rowStart))
					for _, si := range sel {
						start, end, _ := csvfile.FieldBounds(data, int(positions[rowStart+int64(si)]))
						out.Int64s[base+int(si)] = bytesconv.ParseInt64Fast(data[start:end])
					}
					return nil
				}
				for _, p := range positions[rowStart:rowEnd] {
					start, end, _ := csvfile.FieldBounds(data, int(p))
					out.Int64s = append(out.Int64s, bytesconv.ParseInt64Fast(data[start:end]))
				}
				return nil
			}, nil
		}
		return func(rowStart, rowEnd int64, sel []int32, out *vector.Vector) error {
			if sel != nil {
				base := out.Extend(int(rowEnd - rowStart))
				for _, si := range sel {
					pos := csvfile.SkipFields(data, int(positions[rowStart+int64(si)]), skip)
					start, end, _ := csvfile.FieldBounds(data, pos)
					out.Int64s[base+int(si)] = bytesconv.ParseInt64Fast(data[start:end])
				}
				return nil
			}
			for _, p := range positions[rowStart:rowEnd] {
				pos := csvfile.SkipFields(data, int(p), skip)
				start, end, _ := csvfile.FieldBounds(data, pos)
				out.Int64s = append(out.Int64s, bytesconv.ParseInt64Fast(data[start:end]))
			}
			return nil
		}, nil
	case vector.Float64:
		return func(rowStart, rowEnd int64, sel []int32, out *vector.Vector) error {
			if sel != nil {
				base := out.Extend(int(rowEnd - rowStart))
				for _, si := range sel {
					pos := int(positions[rowStart+int64(si)])
					if skip > 0 {
						pos = csvfile.SkipFields(data, pos, skip)
					}
					start, end, _ := csvfile.FieldBounds(data, pos)
					v, err := bytesconv.ParseFloat64(data[start:end])
					if err != nil {
						return fmt.Errorf("jit csv map scan: %w", err)
					}
					out.Float64s[base+int(si)] = v
				}
				return nil
			}
			for _, p := range positions[rowStart:rowEnd] {
				pos := int(p)
				if skip > 0 {
					pos = csvfile.SkipFields(data, pos, skip)
				}
				start, end, _ := csvfile.FieldBounds(data, pos)
				v, err := bytesconv.ParseFloat64(data[start:end])
				if err != nil {
					return fmt.Errorf("jit csv map scan: %w", err)
				}
				out.Float64s = append(out.Float64s, v)
			}
			return nil
		}, nil
	default:
		return nil, fmt.Errorf("jit: unsupported CSV column type %s", typ)
	}
}

func scanSchema(t *catalog.Table, need []int, emitRID bool) (vector.Schema, error) {
	schema := make(vector.Schema, 0, len(need)+1)
	for _, c := range need {
		if c < 0 || c >= len(t.Schema) {
			return nil, fmt.Errorf("jit: column index %d out of range for table %q", c, t.Name)
		}
		schema = append(schema, vector.Col{Name: t.Schema[c].Name, Type: t.Schema[c].Type})
	}
	if emitRID {
		schema = append(schema, vector.Col{Name: insitu.RowIDColumn, Type: vector.Int64})
	}
	return schema, nil
}

// Schema implements exec.Operator.
func (s *CSVScan) Schema() vector.Schema { return s.schema }

// Open implements exec.Operator.
func (s *CSVScan) Open() error {
	s.pos = 0
	s.row = s.rngStart
	s.err = nil
	s.failed = false
	return nil
}

// Next implements exec.Operator.
func (s *CSVScan) Next() (*vector.Batch, error) {
	s.out.Reset()
	if s.readers != nil {
		return s.nextViaMap()
	}
	return s.nextSequential()
}

func (s *CSVScan) nextSequential() (*vector.Batch, error) {
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

func (s *CSVScan) nextViaMap() (*vector.Batch, error) {
	limit := s.nrows
	if s.rngEnd > 0 {
		limit = s.rngEnd
	}
	for {
		if s.row >= limit {
			return nil, nil
		}
		end := s.row + int64(s.batchSize)
		if end > limit {
			end = limit
		}
		// Zone-map exclusion: skip the whole range without touching a byte.
		if s.skip != nil && s.skip(s.row, end) {
			s.blocksSkipped++
			s.rowsPruned += end - s.row
			s.row = end
			continue
		}
		s.out.Reset()
		m := int(end - s.row)
		var sel []int32
		if len(s.predEval) > 0 {
			// Predicate columns first, dense; then the vectorized conjunction.
			for _, ri := range s.predReaders {
				if err := s.readers[ri](s.row, end, nil, s.out.Cols[ri]); err != nil {
					return nil, err
				}
			}
			var all bool
			sel, all = evalSlotPreds(s.predEval, s.out, m, s.selBuf)
			s.selBuf = sel[:0]
			if all {
				sel = nil
			} else if len(sel) == 0 {
				s.rowsPruned += int64(m)
				s.row = end
				continue
			} else {
				s.rowsPruned += int64(m - len(sel))
			}
			// Remaining columns honour the selection: non-qualifying rows
			// never pay their parse cost.
			for _, ri := range s.restReaders {
				if err := s.readers[ri](s.row, end, sel, s.out.Cols[ri]); err != nil {
					return nil, err
				}
			}
		} else {
			for i, r := range s.readers {
				if err := r(s.row, end, nil, s.out.Cols[i]); err != nil {
					return nil, err
				}
			}
		}
		if s.emitRID {
			rid := s.out.Cols[s.ridSlot]
			for i := s.row; i < end; i++ {
				rid.AppendInt64(i)
			}
		}
		s.out.Sel = sel
		s.row = end
		return s.out, nil
	}
}

// Close implements exec.Operator.
func (s *CSVScan) Close() error { return nil }

var _ exec.Operator = (*CSVScan)(nil)
