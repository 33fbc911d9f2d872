package jit

import (
	"fmt"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/storage/binfile"
)

// NewBinScan generates a binary access path materialising columns need.
func NewBinScan(r *binfile.Reader, t *catalog.Table, need []int, emitRID bool, batchSize int) (*RowScan, error) {
	return NewBinScanPush(r, t, need, emitRID, batchSize, Pushdown{})
}

// NewBinScanPush generates a JIT access path over the fixed-width binary
// format: a RowScan over BinLateFetch, whose field offsets and row stride are
// resolved once, so reading a value costs one multiplication and one load with
// no type dispatch. This is the paper's "the location of the 3rd column of row
// 15 can be computed as 15*tupleSize + 2*dataSize ... directly included in the
// generated code". Fixed-stride arithmetic makes any row range addressable
// directly. opts.Syn observes the columns fetched dense: all of them, or with
// predicates pushed only the predicate columns.
func NewBinScanPush(r *binfile.Reader, t *catalog.Table, need []int, emitRID bool,
	batchSize int, opts Pushdown) (*RowScan, error) {
	if t.Format != catalog.Binary {
		return nil, fmt.Errorf("jit: bin scan got format %s", t.Format)
	}
	return newRowScan(t, need, r.NRows(), emitRID, batchSize, opts, nil, func(cols []int) (exec.Fetch, error) {
		return BinLateFetch(r, t, cols)
	})
}
