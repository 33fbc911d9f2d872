// Package binfile implements the paper's custom fixed-width binary format:
// "each attribute is serialized from its corresponding C representation" and
// every field is stored in a fixed-size number of bytes. Because of that, the
// byte location of any (row, column) pair is computable in advance —
// location = header + row*rowSize + fieldOffset(col) — which is exactly the
// property JIT access paths exploit by hard-coding offsets into generated
// scan code instead of consulting a positional map.
//
// Layout: 8-byte magic, int32 column count, int64 row count, one type byte
// per column, then row-major fixed-width little-endian payload.
package binfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"rawdb/internal/vector"
)

// Magic identifies the format; the trailing byte versions it.
const Magic = "RAWBIN\x00\x01"

// ErrCorrupt reports a structurally invalid file.
var ErrCorrupt = errors.New("binfile: corrupt file")

// typeWidth returns the serialized width of t, or an error for variable
// width types which the format does not support.
func typeWidth(t vector.Type) (int, error) {
	w := t.Width()
	if w == 0 {
		return 0, fmt.Errorf("binfile: type %s has no fixed width", t)
	}
	return w, nil
}

// A Writer serializes rows into the binary format. The row count must be
// declared up front so the header can be written without seeking.
type Writer struct {
	bw      *bufio.Writer
	types   []vector.Type
	nrows   int64
	written int64
	buf     []byte
}

// NewWriter writes the header and returns a Writer expecting exactly nrows
// calls to WriteRow.
func NewWriter(w io.Writer, types []vector.Type, nrows int64) (*Writer, error) {
	for _, t := range types {
		if _, err := typeWidth(t); err != nil {
			return nil, err
		}
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(types)))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(nrows))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	tb := make([]byte, len(types))
	for i, t := range types {
		tb[i] = byte(t)
	}
	if _, err := bw.Write(tb); err != nil {
		return nil, err
	}
	return &Writer{bw: bw, types: append([]vector.Type(nil), types...), nrows: nrows}, nil
}

// WriteRow serializes one row; ints and floats supply values for the Int64
// and Float64 columns in column order.
func (w *Writer) WriteRow(ints []int64, floats []float64) error {
	if w.written >= w.nrows {
		return fmt.Errorf("binfile: more rows written than declared (%d)", w.nrows)
	}
	w.buf = w.buf[:0]
	ii, fi := 0, 0
	for _, t := range w.types {
		switch t {
		case vector.Int64:
			w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(ints[ii]))
			ii++
		case vector.Float64:
			w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(floats[fi]))
			fi++
		case vector.Bool:
			return fmt.Errorf("binfile: bool rows must use WriteRowValues")
		}
	}
	w.written++
	_, err := w.bw.Write(w.buf)
	return err
}

// Close flushes the writer and verifies the declared row count was honoured.
func (w *Writer) Close() error {
	if w.written != w.nrows {
		return fmt.Errorf("binfile: declared %d rows, wrote %d", w.nrows, w.written)
	}
	return w.bw.Flush()
}

// A Reader provides direct byte-addressed access to a memory-resident binary
// file. FieldOffset and RowSize are precomputed once; JIT scan construction
// folds them into per-column constants.
type Reader struct {
	data      []byte // full file contents
	payload   []byte // data after the header
	types     []vector.Type
	nrows     int64
	rowSize   int
	fieldOffs []int
}

// NewReader parses the header of data and validates the payload length.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < len(Magic)+12 || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	p := len(Magic)
	ncols := int(binary.LittleEndian.Uint32(data[p : p+4]))
	nrows := int64(binary.LittleEndian.Uint64(data[p+4 : p+12]))
	p += 12
	if ncols <= 0 || nrows < 0 || p+ncols > len(data) {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	types := make([]vector.Type, ncols)
	offs := make([]int, ncols)
	rowSize := 0
	for i := 0; i < ncols; i++ {
		t := vector.Type(data[p+i])
		w, err := typeWidth(t)
		if err != nil {
			return nil, fmt.Errorf("%w: column %d: %v", ErrCorrupt, i, err)
		}
		types[i] = t
		offs[i] = rowSize
		rowSize += w
	}
	p += ncols
	if int64(len(data)-p) < nrows*int64(rowSize) {
		return nil, fmt.Errorf("%w: truncated payload (have %d bytes, need %d)",
			ErrCorrupt, len(data)-p, nrows*int64(rowSize))
	}
	return &Reader{
		data:      data,
		payload:   data[p:],
		types:     types,
		nrows:     nrows,
		rowSize:   rowSize,
		fieldOffs: offs,
	}, nil
}

// NRows returns the number of rows.
func (r *Reader) NRows() int64 { return r.nrows }

// Types returns the column types. The slice must not be modified.
func (r *Reader) Types() []vector.Type { return r.types }

// RowSize returns the fixed serialized size of one row in bytes.
func (r *Reader) RowSize() int { return r.rowSize }

// FieldOffset returns the byte offset of column col within a row.
func (r *Reader) FieldOffset(col int) int { return r.fieldOffs[col] }

// Payload returns the raw row-major payload bytes. JIT access paths address
// it directly with precomputed constants.
func (r *Reader) Payload() []byte { return r.payload }

// Int64At decodes the int64 at (row, col). It is the generic (non-JIT)
// access method: the position is computed on every call.
func (r *Reader) Int64At(row int64, col int) int64 {
	off := row*int64(r.rowSize) + int64(r.fieldOffs[col])
	return int64(binary.LittleEndian.Uint64(r.payload[off : off+8]))
}

// Float64At decodes the float64 at (row, col).
func (r *Reader) Float64At(row int64, col int) float64 {
	off := row*int64(r.rowSize) + int64(r.fieldOffs[col])
	return math.Float64frombits(binary.LittleEndian.Uint64(r.payload[off : off+8]))
}
