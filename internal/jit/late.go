package jit

import (
	"fmt"
	"slices"

	"rawdb/internal/bytesconv"
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
	sorted := slices.Sorted(slices.Values(cols))
	if _, err := appendSchema(nil, t, sorted); err != nil {
		return nil, err
	}
	// Group columns by anchor; resolved once at generation time.
	type group struct {
		positions *offsets.Column
		anchor    int
		targets   []csvWalkTarget
	}
	var groups []*group
	byAnchor := make(map[int]*group)
	for slot, c := range sorted {
		anchor, ok := pm.Nearest(c)
		if !ok {
			return nil, fmt.Errorf("jit: positional map cannot reach column %d", c)
		}
		g, ok := byAnchor[anchor]
		if !ok {
			g = &group{positions: pm.Positions(anchor), anchor: anchor}
			byAnchor[anchor] = g
			groups = append(groups, g)
		}
		g.targets = append(g.targets, csvWalkTarget{col: c, slot: slot, typ: t.Schema[c].Type})
	}
	return func(rids []int64, outs []*vector.Vector) error {
		for _, g := range groups {
			positions := g.positions
			for _, rid := range rids {
				if rid < 0 || rid >= positions.Len() {
					return fmt.Errorf("jit: late scan row id %d out of range", rid)
				}
				pos := int(positions.At(rid))
				cur := g.anchor
				for _, tg := range g.targets {
					if d := tg.col - cur; d > 0 {
						pos = csvfile.SkipFields(data, pos, d)
					}
					start, end, next := csvfile.FieldBounds(data, pos)
					switch tg.typ {
					case vector.Int64:
						v, err := bytesconv.ParseInt64(data[start:end])
						if err != nil {
							return fmt.Errorf("jit: late scan row %d col %d: %w", rid, tg.col, err)
						}
						outs[tg.slot].Int64s = append(outs[tg.slot].Int64s, v)
					case vector.Float64:
						v, err := bytesconv.ParseFloat64(data[start:end])
						if err != nil {
							return fmt.Errorf("jit: late scan row %d col %d: %w", rid, tg.col, err)
						}
						outs[tg.slot].Float64s = append(outs[tg.slot].Float64s, v)
					default:
						return fmt.Errorf("jit: unsupported type %s", tg.typ)
					}
					pos = next
					cur = tg.col + 1
				}
			}
		}
		return nil
	}, nil
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
