package jit

import (
	"fmt"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/storage/rootfile"
)

// NewRootScanPush generates a JIT access path over the ROOT-like format: a
// RowScan over RootLateFetch. Mirroring the paper's Higgs implementation, the
// generated code does not parse bytes itself ("the JIT access paths emit code
// that calls the ROOT I/O API"): the branch handles, the paper's "internal
// ROOT-specific identifiers", are resolved from the partial schema once, and
// a batch range is read with one library gather per column. Entries are
// addressed by id, so any row range is a morsel, and the engine's zone maps
// (opts.Skip, opts.Syn) serve it as they serve every other format. Every
// column is read dense: a run of a basket is copied in one move, which costs
// less than picking the qualifying entries out of it one by one.
func NewRootScanPush(tree *rootfile.Tree, t *catalog.Table, need []int, emitRID bool,
	batchSize int, opts Pushdown) (*RowScan, error) {
	if t.Format != catalog.Root {
		return nil, fmt.Errorf("jit: root scan got format %s", t.Format)
	}
	return newRowScan(t, need, tree.NEntries(), emitRID, batchSize, opts, need, func(cols []int) (exec.Fetch, error) {
		return RootLateFetch(tree, t, cols)
	})
}
