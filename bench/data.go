package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	raw "rawdb"
	"rawdb/internal/catalog"
	"rawdb/internal/vector"
	gen "rawdb/internal/workload"
)

// table is one generated dataset together with the oracle's own decoding of
// it: plain Go slices per column, filled by decodeBin/decodeCSV below and
// never by any engine package, so the engine's parsers and the oracle can
// disagree.
type table struct {
	schema []raw.Column
	ints   [][]int64   // ints[c] is nil for float columns
	floats [][]float64 // floats[c] is nil for int columns
	rows   int
}

func rawSchema(cols []catalog.Column) []raw.Column {
	out := make([]raw.Column, len(cols))
	for i, c := range cols {
		out[i] = raw.Column{Name: c.Name, Type: c.Type}
	}
	return out
}

// newTable decodes ds for the oracle: from the fixed-width binary image when
// every column is an integer (all images then hold the same values), else
// from the CSV image with strconv. The generators truncate floats to six
// decimals in CSV and JSONL, so for float columns the text images, which are
// the ones the workloads register, differ from the binary one.
func newTable(ds *gen.Dataset) (*table, error) {
	t := &table{schema: rawSchema(ds.Schema), rows: ds.Rows,
		ints: make([][]int64, len(ds.Schema)), floats: make([][]float64, len(ds.Schema))}
	allInts := true
	for c, col := range ds.Schema {
		switch col.Type {
		case vector.Int64:
			t.ints[c] = make([]int64, ds.Rows)
		case vector.Float64:
			t.floats[c] = make([]float64, ds.Rows)
			allInts = false
		default:
			return nil, fmt.Errorf("bench: oracle cannot decode %s column %s", col.Type, col.Name)
		}
	}
	if ds.Bin != nil && allInts {
		return t, t.decodeBin(ds.Bin)
	}
	return t, t.decodeCSV(ds.CSV)
}

// decodeBin reads the binfile layout directly: 8-byte magic, int32 column
// count, int64 row count, one type byte per column, then row-major 8-byte
// little-endian fields.
func (t *table) decodeBin(b []byte) error {
	ncols := len(t.schema)
	header := 8 + 4 + 8 + ncols
	if len(b) != header+t.rows*ncols*8 {
		return fmt.Errorf("bench: binary image is %d bytes, want %d", len(b), header+t.rows*ncols*8)
	}
	p := header
	for r := 0; r < t.rows; r++ {
		for c := 0; c < ncols; c++ {
			u := binary.LittleEndian.Uint64(b[p:])
			p += 8
			if t.ints[c] != nil {
				t.ints[c][r] = int64(u)
			} else {
				t.floats[c][r] = math.Float64frombits(u)
			}
		}
	}
	return nil
}

func (t *table) decodeCSV(b []byte) error {
	r := 0
	for len(b) > 0 {
		nl := bytes.IndexByte(b, '\n')
		if nl < 0 {
			nl = len(b)
		}
		line := b[:nl]
		b = b[min(nl+1, len(b)):]
		if r >= t.rows {
			return fmt.Errorf("bench: CSV image has more than %d rows", t.rows)
		}
		for c := range t.schema {
			field := line
			if i := bytes.IndexByte(line, ','); i >= 0 {
				field, line = line[:i], line[i+1:]
			}
			var err error
			if t.ints[c] != nil {
				t.ints[c][r], err = strconv.ParseInt(string(field), 10, 64)
			} else {
				t.floats[c][r], err = strconv.ParseFloat(string(field), 64)
			}
			if err != nil {
				return fmt.Errorf("bench: CSV row %d column %d: %w", r, c, err)
			}
		}
		r++
	}
	if r != t.rows {
		return fmt.Errorf("bench: CSV image has %d rows, want %d", r, t.rows)
	}
	return nil
}

// col returns the index of the named column.
func (t *table) col(name string) int {
	for i, c := range t.schema {
		if c.Name == name {
			return i
		}
	}
	panic("bench: no column " + name)
}
