// Package csvfile implements the textual raw-file substrate: low-level
// tokenizer primitives over a memory-resident CSV file and a writer used by
// the dataset generators.
//
// CSV is the paper's representative "extreme" text format: the byte location
// of column N varies per row and cannot be determined in advance, so scans
// must tokenize byte-by-byte unless a positional map provides a shortcut.
// The tokenizer here is deliberately low level — free functions over a byte
// slice — so that both the general-purpose in-situ scan (which composes them
// in an interpreted per-column loop) and the JIT access paths (which chain
// them into unrolled, query-specific step sequences) share one lexing core.
package csvfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"rawdb/internal/bytesconv"
	"rawdb/internal/vector"
)

// Delim is the field delimiter. The paper's datasets are comma-separated.
const Delim = ','

// FieldBounds returns the [start, end) byte bounds of the field beginning at
// pos and the position of the first byte of the following field (past the
// delimiter or newline). It never reads past len(data).
func FieldBounds(data []byte, pos int) (start, end, next int) {
	start = pos
	i := pos
	for i < len(data) {
		c := data[i]
		if c == Delim {
			return start, i, i + 1
		}
		if c == '\n' {
			return start, i, i + 1
		}
		i++
	}
	return start, i, i
}

// Int64At converts the field at pos, whose first byte c the caller has
// loaded (0 past the end of data), and returns the start of the next field.
// A field that starts with a sign or a digit and is a number the prefix
// parser takes, ending at a delimiter, a newline or the end of the file, is
// converted in one pass; any other is delimited by FieldBounds and converted
// by ParseInt64. The value or the error is ParseInt64's for the field.
func Int64At(data []byte, pos int, c byte) (int64, int, error) {
	if c-'0' <= 9 || c == '-' {
		if v, end, ok := bytesconv.ParseInt64Prefix(data, pos); ok && fieldEnds(data, end) {
			return v, min(end+1, len(data)), nil
		}
	}
	start, end, next := FieldBounds(data, pos)
	v, err := bytesconv.ParseInt64(data[start:end])
	return v, next, err
}

// Float64At is Int64At for ParseFloat64.
func Float64At(data []byte, pos int, c byte) (float64, int, error) {
	if c-'0' <= 9 || c == '-' {
		if v, end, ok := bytesconv.ParseFloat64Prefix(data, pos); ok && fieldEnds(data, end) {
			return v, min(end+1, len(data)), nil
		}
	}
	start, end, next := FieldBounds(data, pos)
	v, err := bytesconv.ParseFloat64(data[start:end])
	return v, next, err
}

func fieldEnds(data []byte, pos int) bool {
	return pos == len(data) || data[pos] == Delim || data[pos] == '\n'
}

// SWAR constants: a byte lane holds 0x01, 0x7f, ',' or '\n' in every lane.
const (
	lanes1   = 0x0101010101010101
	lanes7f  = 0x7f7f7f7f7f7f7f7f
	lanesDel = lanes1 * Delim
	lanesNL  = lanes1 * '\n'
)

// delimMask returns a word whose byte lane i is 0x80 when byte i of w is a
// delimiter or a newline and 0x00 otherwise. The zero-byte test is the exact
// one: adding 0x7f to the low seven bits of a lane cannot carry into the next
// lane, so look-alikes that differ from a delimiter only in bit 7 (0xAC,
// 0x8A) or by one (0x2D, 0x0B) never match, unlike the (x-1)&^x shortcut.
func delimMask(w uint64) uint64 {
	x, y := w^lanesDel, w^lanesNL
	return ^(((x & lanes7f) + lanes7f) | x | lanes7f) | ^(((y & lanes7f) + lanes7f) | y | lanes7f)
}

// SkipFields advances past n fields, each with its trailing delimiter or
// newline, and returns the position of the first byte after them (len(data)
// when fewer than n fields remain). It reads eight bytes per load: whole
// words are consumed by the population count of their delimiter mask, the
// word holding the n-th delimiter is resolved by clearing the n-1 lower mask
// bits, and the final <8 bytes of the file are handled byte by byte.
func SkipFields(data []byte, pos, n int) int {
	for n > 0 && pos+8 <= len(data) {
		m := delimMask(binary.LittleEndian.Uint64(data[pos:]))
		if c := bits.OnesCount64(m); c < n {
			n -= c
			pos += 8
			continue
		}
		for ; n > 1; n-- {
			m &= m - 1
		}
		return pos + bits.TrailingZeros64(m)>>3 + 1
	}
	for n > 0 && pos < len(data) {
		if c := data[pos]; c == Delim || c == '\n' {
			n--
		}
		pos++
	}
	return pos
}

// SkipRow advances past the remainder of the current row, returning the
// position of the first byte of the next row.
func SkipRow(data []byte, pos int) int {
	if pos >= len(data) {
		return pos
	}
	if i := bytes.IndexByte(data[pos:], '\n'); i >= 0 {
		return pos + i + 1
	}
	return len(data)
}

// A Span is one morsel of a text file: the half-open byte range
// [Start, End). Spans produced by Split are contiguous, non-empty, cover the
// file exactly once, and every span boundary sits just past a newline, so no
// record is ever split across morsels.
type Span struct {
	Start, End int
}

// Split cuts data into at most n record-aligned morsels of roughly equal
// size. Each span except possibly the last ends immediately after a '\n';
// a file with fewer records than n yields fewer spans.
func Split(data []byte, n int) []Span {
	if len(data) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	spans := make([]Span, 0, n)
	start := 0
	for i := 1; i < n && start < len(data); i++ {
		cut := len(data) * i / n
		if cut <= start {
			continue
		}
		// Advance the tentative cut to the next record boundary.
		j := bytes.IndexByte(data[cut:], '\n')
		if j < 0 {
			break // no further newline: the remainder is one span
		}
		boundary := cut + j + 1
		if boundary >= len(data) {
			break
		}
		if boundary <= start {
			continue
		}
		spans = append(spans, Span{start, boundary})
		start = boundary
	}
	if start < len(data) {
		spans = append(spans, Span{start, len(data)})
	}
	return spans
}

// CountRows counts newline-terminated rows. A non-empty trailing fragment
// without a final newline counts as one row.
func CountRows(data []byte) int64 {
	n := int64(bytes.Count(data, []byte{'\n'}))
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

// EstimateRows estimates the row count from the file's length and the mean
// length of its first 64 rows, plus 2 %, without reading further. It sizes
// allocations ahead of a scan; only CountRows is exact.
func EstimateRows(data []byte) int64 {
	end, rows := 0, 0
	for rows < 64 && end < len(data) {
		end = SkipRow(data, end)
		rows++
	}
	if rows == 0 {
		return 0
	}
	n := int64(len(data)) * int64(rows) / int64(end)
	return n + n/50 + 1
}

// A Writer emits CSV rows. It exists for the dataset generators and tests;
// query execution never writes CSV.
type Writer struct {
	bw    *bufio.Writer
	types []vector.Type
	buf   []byte
	rows  int64
}

// NewWriter returns a Writer producing rows whose fields have the given
// types.
func NewWriter(w io.Writer, types []vector.Type) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), types: append([]vector.Type(nil), types...)}
}

// WriteRow writes one row. vals must have one entry per column; int64 values
// feed Int64 columns, float64 values feed Float64 columns.
func (w *Writer) WriteRow(ints []int64, floats []float64) error {
	w.buf = w.buf[:0]
	ii, fi := 0, 0
	for c, t := range w.types {
		if c > 0 {
			w.buf = append(w.buf, Delim)
		}
		switch t {
		case vector.Int64:
			w.buf = bytesconv.AppendInt64(w.buf, ints[ii])
			ii++
		case vector.Float64:
			w.buf = bytesconv.AppendFloat6(w.buf, floats[fi])
			fi++
		default:
			return fmt.Errorf("csvfile: unsupported column type %s", t)
		}
	}
	w.buf = append(w.buf, '\n')
	w.rows++
	_, err := w.bw.Write(w.buf)
	return err
}

// Rows returns the number of rows written so far.
func (w *Writer) Rows() int64 { return w.rows }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }
