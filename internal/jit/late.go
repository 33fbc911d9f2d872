package jit

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/insitu"
	"rawdb/internal/offsets"
	"rawdb/internal/posmap"
	"rawdb/internal/storage/binfile"
	"rawdb/internal/storage/csvfile"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/vector"
)

// The late access paths implement column shreds: scan operators pushed *up*
// the query plan, appending columns by row id to the batches of a child that
// carries the hidden row-id column. Conversion and column-building costs are
// then paid for exactly the shred of each column a query needs. Each format
// generates only the fetch (exec.Fetch); the engine runs it in the one
// exec.LateScan shell, on its own or completing a partial cached shred.

// csvWalkTarget is one field collected during a single parsing pass.
type csvWalkTarget struct {
	col  int
	slot int // its vector in the fetch's outs
	typ  vector.Type
	// anchor is the tracked column it is reached from, at positions; skip
	// counts the fields from there, or from the previous target of the same
	// anchor, to it; end is one past the last target reached from the same
	// anchor (kept on the first of them).
	anchor    int
	positions *offsets.Column
	skip, end int
}

// NewCSVLateScan is the late scan appending cols of a CSV file, in ascending
// order, through CSVLateFetch.
func NewCSVLateScan(child exec.Operator, data []byte, t *catalog.Table, cols []int,
	pm *posmap.Map, ridIdx int) (*exec.LateScan, error) {
	sorted := slices.Sorted(slices.Values(cols))
	fetch, err := CSVLateFetch(data, t, sorted, pm)
	if err != nil {
		return nil, err
	}
	schema, _ := appendSchema(nil, t, sorted) // CSVLateFetch checked the columns
	return exec.NewLateScan(child, ridIdx, insitu.RowIDColumn, schema, fetch)
}

// CSVLateFetch generates the late fetch of cols of a CSV file. The generator
// groups the columns by the positional-map anchor they are reached from; each
// group is read with one parsing pass per row (multi-column shreds when
// len(cols) > 1 share an anchor), its columns in ascending order.
func CSVLateFetch(data []byte, t *catalog.Table, cols []int, pm *posmap.Map) (exec.Fetch, error) {
	if t.Format != catalog.CSV {
		return nil, fmt.Errorf("jit: csv late scan got format %s", t.Format)
	}
	if pm == nil || pm.NRows() == 0 {
		return nil, fmt.Errorf("jit: csv late scan requires a populated positional map")
	}
	targets := make([]csvWalkTarget, len(cols))
	for slot, c := range cols {
		if err := columnInRange(t, c); err != nil {
			return nil, err
		}
		if typ := t.Schema[c].Type; typ != vector.Int64 && typ != vector.Float64 {
			return nil, fmt.Errorf("jit: unsupported CSV column type %s", typ)
		}
		targets[slot] = csvWalkTarget{col: c, slot: slot, typ: t.Schema[c].Type}
	}
	// Group columns by anchor, resolved once at generation time. Sorted by
	// column, the ones an anchor reaches are a run of targets.
	slices.SortFunc(targets, func(a, b csvWalkTarget) int { return a.col - b.col })
	for i := len(targets) - 1; i >= 0; i-- {
		tg := &targets[i]
		anchor, ok := pm.Nearest(tg.col)
		if !ok {
			return nil, fmt.Errorf("jit: positional map cannot reach column %d", tg.col)
		}
		tg.anchor, tg.positions, tg.end, tg.skip = anchor, pm.Positions(anchor), i+1, tg.col-anchor
		if next := i + 1; next < len(targets) && targets[next].anchor == anchor {
			if targets[next].col == tg.col {
				// The parse is past the field when the second target comes.
				return nil, fmt.Errorf("jit: csv column %d requested twice", tg.col)
			}
			tg.end, targets[next].skip = targets[next].end, targets[next].col-tg.col-1
		}
	}
	var b lateBatch
	return func(rids []int64, outs []*vector.Vector) error {
		for g := 0; g < len(targets); g = targets[g].end {
			group := targets[g:targets[g].end]
			if err := b.locate(data, group[0].positions, group[0].positions.Len(), rids); err != nil {
				return err
			}
			for i := range b.pos {
				pos, c := b.start(data, i)
				for k := range group {
					tg := &group[k]
					if tg.skip > 0 {
						pos = csvfile.SkipFields(data, pos, tg.skip)
						c = byteAt(data, pos)
					}
					var err error
					if out := outs[tg.slot]; tg.typ == vector.Int64 {
						var v int64
						if v, pos, err = csvfile.Int64At(data, pos, c); err == nil {
							out.Int64s = append(out.Int64s, v)
						}
					} else {
						var v float64
						if v, pos, err = csvfile.Float64At(data, pos, c); err == nil {
							out.Float64s = append(out.Float64s, v)
						}
					}
					if err != nil {
						return fmt.Errorf("jit csv: row %d col %d: %w", rids[i], tg.col, err)
					}
					c = byteAt(data, pos)
				}
			}
		}
		return nil
	}, nil
}

// lateBatch is the scratch of a CSV or JSON late fetch, reused across its
// batches: per row of a batch, the position its parse starts at and, when
// loaded in a pass of their own, the bytes there.
type lateBatch struct {
	pos   []int64
	first []byte
}

// locate fills b for a batch of row ids from col, which holds nrows rows. It
// decodes [rids[0], rids[n-1]] in one call — compacted in place unless the ids
// are that contiguous run, as a RowScan's unpruned range is — when the ids
// ascend and span at most twice their count, and reads col.At per row
// otherwise (sparse, unsorted or repeated ids). Then, unless the ids are
// contiguous, it loads the byte at every position in a pass of its own: the
// rows' cache misses overlap there, instead of each one waiting behind the
// previous row's parse, which starts from that byte. A contiguous run is read
// front to back, which the hardware prefetcher already overlaps with the
// parse; a load pass ahead of it only stalls on the stream.
func (b *lateBatch) locate(data []byte, col *offsets.Column, nrows int64, rids []int64) error {
	n := len(rids)
	b.first = b.first[:0]
	if ascendingRun(rids, nrows) {
		lo := rids[0]
		if b.pos = col.Decode(b.pos, lo, rids[n-1]+1); len(b.pos) == n {
			return nil
		}
		for i, r := range rids {
			b.pos[i] = b.pos[r-lo] // r-lo >= i: the read is ahead of the writes
		}
		b.pos = b.pos[:n]
	} else {
		b.pos = slices.Grow(b.pos[:0], n)
		for _, r := range rids {
			if r < 0 || r >= nrows {
				return rowIDError(r)
			}
			b.pos = append(b.pos, col.At(r))
		}
	}
	b.first = slices.Grow(b.first, n)[:n]
	for i, p := range b.pos {
		b.first[i] = byteAt(data, int(p))
	}
	return nil
}

// start returns where the parse of the batch's row i starts and the byte
// there.
func (b *lateBatch) start(data []byte, i int) (int, byte) {
	pos := int(b.pos[i])
	if len(b.first) == 0 {
		return pos, byteAt(data, pos)
	}
	return pos, b.first[i]
}

// ascendingRun reports whether rids strictly ascend within [0, nrows) and
// span at most twice their count. Decoding and compacting a span costs about
// as much as At per id when the span is three to four times the ids' count,
// and a quarter less at twice it (hot offsets, 1024-id batches).
func ascendingRun(rids []int64, nrows int64) bool {
	n := len(rids)
	if n == 0 || rids[0] < 0 || rids[n-1] >= nrows || rids[n-1]-rids[0] >= 2*int64(n) {
		return false
	}
	for i := 1; i < n; i++ {
		if rids[i] <= rids[i-1] {
			return false
		}
	}
	return true
}

// byteAt is data[pos], or 0 past its end.
func byteAt(data []byte, pos int) byte {
	if pos < len(data) {
		return data[pos]
	}
	return 0
}

// rowIDError is a fetch's failure on a row id outside the table.
func rowIDError(rid int64) error {
	return fmt.Errorf("jit: row id %d out of range", rid)
}

// BinLateFetch generates the fetch of cols of the binary format: positions
// are computed directly from constants, no map needed. Each column is read in
// one strided loop over the batch's row ids, checked against the table first.
func BinLateFetch(r *binfile.Reader, t *catalog.Table, cols []int) (exec.Fetch, error) {
	if t.Format != catalog.Binary {
		return nil, fmt.Errorf("jit: bin late scan got format %s", t.Format)
	}
	if _, err := appendSchema(nil, t, cols); err != nil {
		return nil, err
	}
	types := r.Types()
	offs := make([]int, len(cols))
	for i, c := range cols {
		if c >= len(types) {
			return nil, fmt.Errorf("jit: column index %d out of range", c)
		}
		if types[c] != vector.Int64 && types[c] != vector.Float64 {
			return nil, fmt.Errorf("jit: unsupported type %s", types[c])
		}
		offs[i] = r.FieldOffset(c)
	}
	payload, rowSize, nrows := r.Payload(), r.RowSize(), r.NRows()
	return func(rids []int64, outs []*vector.Vector) error {
		for _, rid := range rids {
			if rid < 0 || rid >= nrows {
				return rowIDError(rid)
			}
		}
		for i, off := range offs {
			out := outs[i]
			if out.Type == vector.Int64 {
				for _, rid := range rids {
					p := int(rid)*rowSize + off
					out.Int64s = append(out.Int64s, int64(binary.LittleEndian.Uint64(payload[p:p+8])))
				}
				continue
			}
			for _, rid := range rids {
				p := int(rid)*rowSize + off
				out.Float64s = append(out.Float64s, math.Float64frombits(binary.LittleEndian.Uint64(payload[p:p+8])))
			}
		}
		return nil
	}, nil
}

// RootLateFetch generates the fetch of cols of the ROOT-like format using
// id-based library access ("readROOTField(fieldName, id)"): one gather per
// column and batch, which reaches each basket the ids fall in once. The
// compressed baskets it inflates are the fetch's own (one rootfile.Inflated
// per column, which holds them from batch to batch), so they die with the
// query.
func RootLateFetch(tree *rootfile.Tree, t *catalog.Table, cols []int) (exec.Fetch, error) {
	if t.Format != catalog.Root {
		return nil, fmt.Errorf("jit: root late scan got format %s", t.Format)
	}
	if _, err := appendSchema(nil, t, cols); err != nil {
		return nil, err
	}
	branches := make([]*rootfile.Branch, len(cols))
	for i, c := range cols {
		col := t.Schema[c]
		br, err := tree.Branch(col.Name)
		if err != nil {
			return nil, fmt.Errorf("jit: root scan: %w", err)
		}
		if br.Type != col.Type {
			return nil, fmt.Errorf("jit: root scan: branch %q is %s, table declares %s", col.Name, br.Type, col.Type)
		}
		branches[i] = br
	}
	inflated := make([]rootfile.Inflated, len(cols))
	return func(rids []int64, outs []*vector.Vector) error {
		for i, br := range branches {
			var err error
			if out := outs[i]; out.Type == vector.Int64 {
				out.Int64s, err = br.Int64sAt(out.Int64s, rids, &inflated[i])
			} else {
				out.Float64s, err = br.Float64sAt(out.Float64s, rids, &inflated[i])
			}
			if err != nil {
				return err
			}
		}
		return nil
	}, nil
}
