package jit

import (
	"fmt"
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

// colFetch appends one column's value at row rid to out.
type colFetch func(rid int64, out *vector.Vector) error

// fetchColumns is the fetch of columns read one at a time: fetchers[i] over
// every row id into outs[i], each id checked against the table's nrows.
func fetchColumns(fetchers []colFetch, nrows int64) exec.Fetch {
	return func(rids []int64, outs []*vector.Vector) error {
		for i, f := range fetchers {
			for _, rid := range rids {
				if rid < 0 || rid >= nrows {
					return fmt.Errorf("jit: late scan row id %d out of range", rid)
				}
				if err := f(rid, outs[i]); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// csvWalkTarget is one field collected during a single parsing pass.
type csvWalkTarget struct {
	col  int
	slot int
	typ  vector.Type
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
// len(cols) > 1 share an anchor). The columns are fetched in ascending order.
func CSVLateFetch(data []byte, t *catalog.Table, cols []int, pm *posmap.Map) (exec.Fetch, error) {
	if t.Format != catalog.CSV {
		return nil, fmt.Errorf("jit: csv late scan got format %s", t.Format)
	}
	if pm == nil || pm.NRows() == 0 {
		return nil, fmt.Errorf("jit: csv late scan requires a populated positional map")
	}
	if !slices.IsSorted(cols) {
		cols = slices.Sorted(slices.Values(cols))
	}
	// Group columns by anchor, resolved once at generation time. The columns
	// ascend, so the ones an anchor reaches are a run of targets.
	type group struct {
		positions *offsets.Column
		anchor    int
		targets   []csvWalkTarget
	}
	var groups []group
	targets := make([]csvWalkTarget, len(cols))
	for slot, c := range cols {
		if err := columnInRange(t, c); err != nil {
			return nil, err
		}
		anchor, ok := pm.Nearest(c)
		if !ok {
			return nil, fmt.Errorf("jit: positional map cannot reach column %d", c)
		}
		targets[slot] = csvWalkTarget{col: c, slot: slot, typ: t.Schema[c].Type}
		if g := len(groups) - 1; g >= 0 && groups[g].anchor == anchor {
			groups[g].targets = groups[g].targets[:len(groups[g].targets)+1]
		} else {
			groups = append(groups, group{positions: pm.Positions(anchor), anchor: anchor, targets: targets[slot : slot+1]})
		}
	}
	var b lateBatch
	return func(rids []int64, outs []*vector.Vector) error {
		for _, g := range groups {
			if err := b.locate(data, g.positions, g.positions.Len(), rids); err != nil {
				return err
			}
			for i, p := range b.pos {
				pos, c, cur := int(p), b.first[i], g.anchor
				for _, tg := range g.targets {
					if d := tg.col - cur; d > 0 {
						pos = csvfile.SkipFields(data, pos, d)
						c = byteAt(data, pos)
					}
					var err error
					switch out := outs[tg.slot]; tg.typ {
					case vector.Int64:
						var v int64
						if v, pos, err = csvfile.Int64At(data, pos, c); err == nil {
							out.Int64s = append(out.Int64s, v)
						}
					case vector.Float64:
						var v float64
						if v, pos, err = csvfile.Float64At(data, pos, c); err == nil {
							out.Float64s = append(out.Float64s, v)
						}
					default:
						return fmt.Errorf("jit: unsupported type %s", tg.typ)
					}
					if err != nil {
						return fmt.Errorf("jit: late scan row %d col %d: %w", rids[i], tg.col, err)
					}
					c, cur = byteAt(data, pos), tg.col+1
				}
			}
		}
		return nil
	}, nil
}

// lateBatch is the scratch of a CSV or JSON late fetch, reused across its
// batches: per row of a batch, the position its parse starts at and the byte
// there.
type lateBatch struct {
	pos   []int64
	first []byte
}

// locate fills b for a batch of row ids from col, which holds nrows rows. It
// decodes [rids[0], rids[n-1]] in one call and compacts it in place when the
// ids ascend and span at most twice their count, and reads col.At per row
// otherwise (sparse, unsorted or repeated ids). Then, in a pass of its own,
// it loads the byte at every position: the rows' cache misses overlap there,
// instead of each one waiting behind the previous row's parse, which starts
// from that byte.
func (b *lateBatch) locate(data []byte, col *offsets.Column, nrows int64, rids []int64) error {
	n := len(rids)
	if ascendingRun(rids, nrows) {
		lo := rids[0]
		b.pos = col.Decode(b.pos, lo, rids[n-1]+1)
		for i, r := range rids {
			b.pos[i] = b.pos[r-lo] // r-lo >= i: the read is ahead of the writes
		}
		b.pos = b.pos[:n]
	} else {
		b.pos = slices.Grow(b.pos[:0], n)
		for _, r := range rids {
			if r < 0 || r >= nrows {
				return fmt.Errorf("jit: late scan row id %d out of range", r)
			}
			b.pos = append(b.pos, col.At(r))
		}
	}
	b.first = slices.Grow(b.first[:0], n)[:n]
	for i, p := range b.pos {
		b.first[i] = byteAt(data, int(p))
	}
	return nil
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

// BinLateFetch generates the late fetch of cols of the binary format:
// positions are computed directly from constants, no map needed.
func BinLateFetch(r *binfile.Reader, t *catalog.Table, cols []int) (exec.Fetch, error) {
	if t.Format != catalog.Binary {
		return nil, fmt.Errorf("jit: bin late scan got format %s", t.Format)
	}
	if _, err := appendSchema(nil, t, cols); err != nil {
		return nil, err
	}
	types := r.Types()
	fetchers := make([]colFetch, len(cols))
	for i, c := range cols {
		if c >= len(types) {
			return nil, fmt.Errorf("jit: column index %d out of range", c)
		}
		switch types[c] {
		case vector.Int64:
			fetchers[i] = func(rid int64, out *vector.Vector) error {
				out.Int64s = append(out.Int64s, r.Int64At(rid, c))
				return nil
			}
		case vector.Float64:
			fetchers[i] = func(rid int64, out *vector.Vector) error {
				out.Float64s = append(out.Float64s, r.Float64At(rid, c))
				return nil
			}
		default:
			return nil, fmt.Errorf("jit: unsupported type %s", types[c])
		}
	}
	return fetchColumns(fetchers, r.NRows()), nil
}

// RootLateFetch generates the late fetch of cols of the ROOT-like format
// using id-based library access ("readROOTField(fieldName, id)").
func RootLateFetch(tree *rootfile.Tree, t *catalog.Table, cols []int) (exec.Fetch, error) {
	if t.Format != catalog.Root {
		return nil, fmt.Errorf("jit: root late scan got format %s", t.Format)
	}
	if _, err := appendSchema(nil, t, cols); err != nil {
		return nil, err
	}
	fetchers := make([]colFetch, len(cols))
	for i, c := range cols {
		col := t.Schema[c]
		br, err := tree.Branch(col.Name)
		if err != nil {
			return nil, fmt.Errorf("jit: root late scan: %w", err)
		}
		switch col.Type {
		case vector.Int64:
			fetchers[i] = func(rid int64, out *vector.Vector) error {
				v, err := br.Int64At(rid)
				if err != nil {
					return err
				}
				out.Int64s = append(out.Int64s, v)
				return nil
			}
		case vector.Float64:
			fetchers[i] = func(rid int64, out *vector.Vector) error {
				v, err := br.Float64At(rid)
				if err != nil {
					return err
				}
				out.Float64s = append(out.Float64s, v)
				return nil
			}
		default:
			return nil, fmt.Errorf("jit: unsupported type %s", col.Type)
		}
	}
	return fetchColumns(fetchers, tree.NEntries()), nil
}
