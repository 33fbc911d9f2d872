// Package insitu implements the *general-purpose* raw-data scan operators
// that RAW's JIT access paths are measured against:
//
//   - ExternalScan reproduces MySQL-style external tables: every query
//     re-tokenizes the whole file, converts every field of every row to the
//     engine type, forms a row tuple, and only then feeds the columnar
//     pipeline. No state survives between queries.
//   - CSVScan reproduces the NoDB implementation adapted to columnar
//     execution: it converts only requested columns and builds/uses a
//     positional map, but remains file- and query-agnostic — the inner loop
//     iterates over all columns with per-column membership checks and a
//     runtime type switch per field, the interpretation overhead the paper
//     attributes to general-purpose scan operators.
//   - BinScan is the generic scan for the fixed-width binary format: field
//     positions are recomputed from the schema on every access instead of
//     being folded into the code.
//
// The JIT counterparts live in package jit; both implement exec.Operator so
// the planner can swap them freely.
package insitu

import (
	"fmt"

	"rawdb/internal/bytesconv"
	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/posmap"
	"rawdb/internal/storage/csvfile"
	"rawdb/internal/vector"
)

// RowIDColumn is the name of the hidden row-id column scans append when
// asked to emit row identifiers for late (shred) scans downstream.
const RowIDColumn = "#rid"

// buildSchema constructs the output schema for a scan materialising the
// table columns at indexes need, optionally followed by the hidden row-id
// column.
func buildSchema(t *catalog.Table, need []int, emitRID bool) (vector.Schema, error) {
	schema := make(vector.Schema, 0, len(need)+1)
	for _, c := range need {
		if c < 0 || c >= len(t.Schema) {
			return nil, fmt.Errorf("scan: column index %d out of range for table %q", c, t.Name)
		}
		schema = append(schema, vector.Col{Name: t.Schema[c].Name, Type: t.Schema[c].Type})
	}
	if emitRID {
		schema = append(schema, vector.Col{Name: RowIDColumn, Type: vector.Int64})
	}
	return schema, nil
}

// ExternalScan is the external-tables baseline scan over a CSV file.
type ExternalScan struct {
	data      []byte
	table     *catalog.Table
	need      []int
	batchSize int
	schema    vector.Schema

	pos int
	row int64
	out *vector.Batch

	// Reused full-row tuple, the "form a tuple" step of external tables.
	tupleI64 []int64
	tupleF64 []float64
	tupleTag []vector.Type
}

// NewExternalScan returns an external-tables scan materialising the columns
// at indexes need.
func NewExternalScan(data []byte, t *catalog.Table, need []int, batchSize int) (*ExternalScan, error) {
	if t.Format != catalog.CSV {
		return nil, fmt.Errorf("insitu: external scan supports CSV only, got %s", t.Format)
	}
	schema, err := buildSchema(t, need, false)
	if err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	return &ExternalScan{
		data: data, table: t, need: append([]int(nil), need...),
		batchSize: batchSize, schema: schema,
		tupleI64: make([]int64, len(t.Schema)),
		tupleF64: make([]float64, len(t.Schema)),
		tupleTag: t.Types(),
	}, nil
}

// Schema implements exec.Operator.
func (s *ExternalScan) Schema() vector.Schema { return s.schema }

// Rows returns the number of rows scanned so far; once Next has returned nil
// it is the row count of the data the scan was given.
func (s *ExternalScan) Rows() int64 { return s.row }

// Open implements exec.Operator.
func (s *ExternalScan) Open() error {
	s.pos = 0
	s.row = 0
	return nil
}

// Next implements exec.Operator.
func (s *ExternalScan) Next() (*vector.Batch, error) {
	if s.pos >= len(s.data) {
		return nil, nil
	}
	if s.out == nil {
		s.out = vector.NewBatch(s.schema.Types(), s.batchSize)
	}
	s.out.Reset()
	data := s.data
	ncols := len(s.table.Schema)
	for s.out.Len() < s.batchSize && s.pos < len(data) {
		// Tokenize, parse and convert EVERY field of the row into the
		// engine representation, then form the tuple — the double work
		// external tables cannot avoid.
		for c := 0; c < ncols; c++ {
			start, end, next := csvfile.FieldBounds(data, s.pos)
			field := data[start:end]
			switch s.tupleTag[c] {
			case vector.Int64:
				v, err := bytesconv.ParseInt64(field)
				if err != nil {
					return nil, fmt.Errorf("external scan: row %d col %d: %w", s.row, c, err)
				}
				s.tupleI64[c] = v
			case vector.Float64:
				v, err := bytesconv.ParseFloat64(field)
				if err != nil {
					return nil, fmt.Errorf("external scan: row %d col %d: %w", s.row, c, err)
				}
				s.tupleF64[c] = v
			default:
				return nil, fmt.Errorf("external scan: unsupported column type %s", s.tupleTag[c])
			}
			s.pos = next
		}
		// Copy the requested attributes out of the tuple into columns.
		for oi, c := range s.need {
			if s.tupleTag[c] == vector.Int64 {
				s.out.Cols[oi].AppendInt64(s.tupleI64[c])
			} else {
				s.out.Cols[oi].AppendFloat64(s.tupleF64[c])
			}
		}
		s.row++
	}
	if s.out.Len() == 0 {
		return nil, nil
	}
	return s.out, nil
}

// Close implements exec.Operator.
func (s *ExternalScan) Close() error { return nil }

// CSVScan is the general-purpose in-situ scan (the NoDB baseline). Depending
// on construction it parses sequentially (building a positional map on the
// side) or navigates via an existing positional map, but in both modes the
// inner loop stays interpretive: membership checks and a type switch execute
// per field, per row.
type CSVScan struct {
	data      []byte
	table     *catalog.Table
	need      []int
	needSet   map[int]int // column -> output slot
	batchSize int
	schema    vector.Schema
	emitRID   bool

	// Positional map handling.
	readPM   *posmap.Map // consulted when non-nil
	buildPM  *posmap.Map // populated when non-nil
	trackSet map[int]bool
	scratch  []int64

	nrows int64 // total rows when known (readPM mode)

	// Row range [rngStart, rngEnd) restricts a via-map scan to a morsel of
	// the file; the zero rngEnd means "to the last row".
	rngStart, rngEnd int64

	pos int
	row int64
	out *vector.Batch
}

// SetRowRange restricts a via-map scan to rows [start, end), the row-morsel
// form used by parallel plans over an already-built positional map. The
// emitted row ids stay absolute.
func (s *CSVScan) SetRowRange(start, end int64) error {
	if s.readPM == nil {
		return fmt.Errorf("insitu: row ranges require a via-map csv scan")
	}
	if start < 0 || end < start || end > s.nrows {
		return fmt.Errorf("insitu: row range [%d,%d) outside 0..%d", start, end, s.nrows)
	}
	s.rngStart, s.rngEnd = start, end
	return nil
}

// NewCSVScan returns a general-purpose scan. If readPM is non-nil the scan
// navigates row by row through the map (the map must cover every needed
// column via Nearest); otherwise it parses sequentially from the start and,
// if buildPM is non-nil, records tracked positions as a side effect.
func NewCSVScan(data []byte, t *catalog.Table, need []int, readPM, buildPM *posmap.Map,
	emitRID bool, batchSize int) (*CSVScan, error) {
	if t.Format != catalog.CSV {
		return nil, fmt.Errorf("insitu: csv scan got format %s", t.Format)
	}
	schema, err := buildSchema(t, need, emitRID)
	if err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	s := &CSVScan{
		data: data, table: t, need: append([]int(nil), need...),
		needSet: make(map[int]int, len(need)), batchSize: batchSize,
		schema: schema, emitRID: emitRID, readPM: readPM, buildPM: buildPM,
	}
	for i, c := range need {
		s.needSet[c] = i
	}
	if readPM != nil {
		for _, c := range need {
			if _, ok := readPM.Nearest(c); !ok {
				return nil, fmt.Errorf("insitu: positional map cannot reach column %d", c)
			}
		}
		s.nrows = readPM.NRows()
	}
	if buildPM != nil {
		s.trackSet = make(map[int]bool)
		for _, c := range buildPM.TrackedColumns() {
			s.trackSet[c] = true
		}
		s.scratch = make([]int64, len(buildPM.TrackedColumns()))
	}
	return s, nil
}

// Schema implements exec.Operator.
func (s *CSVScan) Schema() vector.Schema { return s.schema }

// Open implements exec.Operator.
func (s *CSVScan) Open() error {
	s.pos = 0
	s.row = s.rngStart
	return nil
}

// Next implements exec.Operator.
func (s *CSVScan) Next() (*vector.Batch, error) {
	if s.out == nil {
		s.out = vector.NewBatch(s.schema.Types(), s.batchSize)
	}
	s.out.Reset()
	if s.readPM != nil {
		return s.nextPositional()
	}
	return s.nextSequential()
}

// nextSequential is the generic first-query loop: iterate all columns of each
// row, testing per column whether its position must be recorded and whether
// its value is requested, switching on the catalog type for conversions.
func (s *CSVScan) nextSequential() (*vector.Batch, error) {
	data := s.data
	ncols := len(s.table.Schema)
	ridSlot := -1
	if s.emitRID {
		ridSlot = len(s.need)
	}
	for s.out.Len() < s.batchSize && s.pos < len(data) {
		si := 0
		for c := 0; c < ncols; c++ {
			// Generic per-column policy checks — the branches JIT unrolls away.
			if s.trackSet != nil && s.trackSet[c] {
				s.scratch[si] = int64(s.pos)
				si++
			}
			if slot, ok := s.needSet[c]; ok {
				start, end, next := csvfile.FieldBounds(data, s.pos)
				field := data[start:end]
				// Consult the catalog data type per field.
				switch s.table.Schema[c].Type {
				case vector.Int64:
					v, err := bytesconv.ParseInt64(field)
					if err != nil {
						return nil, fmt.Errorf("in-situ scan: row %d col %d: %w", s.row, c, err)
					}
					s.out.Cols[slot].AppendInt64(v)
				case vector.Float64:
					v, err := bytesconv.ParseFloat64(field)
					if err != nil {
						return nil, fmt.Errorf("in-situ scan: row %d col %d: %w", s.row, c, err)
					}
					s.out.Cols[slot].AppendFloat64(v)
				default:
					return nil, fmt.Errorf("in-situ scan: unsupported type %s", s.table.Schema[c].Type)
				}
				s.pos = next
			} else {
				s.pos = csvfile.SkipFields(data, s.pos, 1)
			}
		}
		if s.buildPM != nil {
			s.buildPM.AppendRow(s.scratch[:si])
		}
		if ridSlot >= 0 {
			s.out.Cols[ridSlot].AppendInt64(s.row)
		}
		s.row++
	}
	if s.out.Len() == 0 {
		return nil, nil
	}
	return s.out, nil
}

// nextPositional is the generic second-query loop: per row and per needed
// column, consult the positional map, jump, incrementally skip to the column,
// then convert via the type switch.
func (s *CSVScan) nextPositional() (*vector.Batch, error) {
	data := s.data
	ridSlot := -1
	if s.emitRID {
		ridSlot = len(s.need)
	}
	limit := s.nrows
	if s.rngEnd > 0 {
		limit = s.rngEnd
	}
	for s.out.Len() < s.batchSize && s.row < limit {
		for oi, c := range s.need {
			pos64, skip, ok := s.readPM.Lookup(s.row, c)
			if !ok {
				return nil, fmt.Errorf("in-situ scan: positional map lookup failed (row %d col %d)", s.row, c)
			}
			pos := int(pos64)
			for k := 0; k < skip; k++ {
				pos = csvfile.SkipFields(data, pos, 1)
			}
			start, end, _ := csvfile.FieldBounds(data, pos)
			field := data[start:end]
			switch s.table.Schema[c].Type {
			case vector.Int64:
				v, err := bytesconv.ParseInt64(field)
				if err != nil {
					return nil, fmt.Errorf("in-situ scan: row %d col %d: %w", s.row, c, err)
				}
				s.out.Cols[oi].AppendInt64(v)
			case vector.Float64:
				v, err := bytesconv.ParseFloat64(field)
				if err != nil {
					return nil, fmt.Errorf("in-situ scan: row %d col %d: %w", s.row, c, err)
				}
				s.out.Cols[oi].AppendFloat64(v)
			default:
				return nil, fmt.Errorf("in-situ scan: unsupported type %s", s.table.Schema[c].Type)
			}
		}
		if ridSlot >= 0 {
			s.out.Cols[ridSlot].AppendInt64(s.row)
		}
		s.row++
	}
	if s.out.Len() == 0 {
		return nil, nil
	}
	return s.out, nil
}

// Close implements exec.Operator.
func (s *CSVScan) Close() error { return nil }

var _ exec.Operator = (*ExternalScan)(nil)
var _ exec.Operator = (*CSVScan)(nil)
