package jit

import (
	"encoding/binary"
	"fmt"
	"math"

	"rawdb/internal/catalog"
	"rawdb/internal/storage/binfile"
	"rawdb/internal/vector"
)

// NewBinScan generates a binary access path materialising columns need.
func NewBinScan(r *binfile.Reader, t *catalog.Table, need []int, emitRID bool, batchSize int) (*RowScan, error) {
	return NewBinScanPush(r, t, need, emitRID, batchSize, Pushdown{})
}

// NewBinScanPush generates a JIT access path over the fixed-width binary
// format. The generator computes every field's byte offset and the row stride
// once and folds them into per-column reader closures; execution is
// column-at-a-time strided decoding with no per-field position arithmetic
// beyond one addition and no type dispatch. This is the paper's "the location
// of the 3rd column of row 15 can be computed as 15*tupleSize + 2*dataSize ...
// directly included in the generated code". Fixed-stride arithmetic makes any
// row range addressable directly. opts.Syn observes the columns decoded
// dense: all of them, or with predicates pushed only the predicate columns.
func NewBinScanPush(r *binfile.Reader, t *catalog.Table, need []int, emitRID bool,
	batchSize int, opts Pushdown) (*RowScan, error) {
	if t.Format != catalog.Binary {
		return nil, fmt.Errorf("jit: bin scan got format %s", t.Format)
	}
	payload := r.Payload()
	rowSize := r.RowSize()
	types := r.Types()
	return newRowScan(t, need, r.NRows(), emitRID, batchSize, opts, func(c int) (rowCol, error) {
		if c >= len(types) {
			return rowCol{}, fmt.Errorf("jit: column index %d out of range", c)
		}
		// Offset and synopsis accumulator resolved at generation time:
		// constants in the closure.
		off := r.FieldOffset(c)
		acc := opts.Syn.Acc(c)
		switch types[c] {
		case vector.Int64:
			return rowCol{read: func(rowStart, rowEnd int64, sel []int32, out *vector.Vector) error {
				if sel != nil {
					base := out.Extend(int(rowEnd - rowStart))
					start := int(rowStart) * rowSize
					for _, si := range sel {
						p := start + int(si)*rowSize + off
						out.Int64s[base+int(si)] = int64(binary.LittleEndian.Uint64(payload[p : p+8]))
					}
					return nil
				}
				p := int(rowStart)*rowSize + off
				for i := rowStart; i < rowEnd; i++ {
					v := int64(binary.LittleEndian.Uint64(payload[p : p+8]))
					if acc != nil {
						acc.ObserveInt64(v)
					}
					out.Int64s = append(out.Int64s, v)
					p += rowSize
				}
				return nil
			}}, nil
		case vector.Float64:
			return rowCol{read: func(rowStart, rowEnd int64, sel []int32, out *vector.Vector) error {
				if sel != nil {
					base := out.Extend(int(rowEnd - rowStart))
					start := int(rowStart) * rowSize
					for _, si := range sel {
						p := start + int(si)*rowSize + off
						out.Float64s[base+int(si)] = math.Float64frombits(binary.LittleEndian.Uint64(payload[p : p+8]))
					}
					return nil
				}
				p := int(rowStart)*rowSize + off
				for i := rowStart; i < rowEnd; i++ {
					v := math.Float64frombits(binary.LittleEndian.Uint64(payload[p : p+8]))
					if acc != nil {
						acc.ObserveFloat64(v)
					}
					out.Float64s = append(out.Float64s, v)
					p += rowSize
				}
				return nil
			}}, nil
		}
		return rowCol{}, fmt.Errorf("jit: unsupported binary column type %s", types[c])
	})
}
