package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/jit"
	"rawdb/internal/posmap"
	"rawdb/internal/vault"
)

// sourceCase is one plug-in over one generated input.
type sourceCase struct {
	name     string
	tab      *catalog.Table
	src      source
	size     int64 // bytes of a text image (what byte spans must cover)
	rows     int64
	register func(e *Engine) error
}

// sourceCases renders the same logical table in every raw format, over the
// inputs that stress range splitting: no rows, one row, a last record without
// its newline, fewer records than requested ranges, and plenty.
func sourceCases(t *testing.T, policy posmap.Policy) []sourceCase {
	t.Helper()
	inputs := []struct {
		name string
		rows int
		chop bool // drop the text image's trailing newline
	}{
		{"empty", 0, false},
		{"one-row", 1, false},
		{"no-trailing-newline", 200, true},
		{"fewer-rows-than-ranges", 3, false},
		{"many", 2000, false},
	}
	var cases []sourceCase
	for _, in := range inputs {
		g := goldenTable(t, in.rows, 0)
		text := func(img []byte) []byte {
			if in.chop {
				return img[:len(img)-1]
			}
			return present(img)
		}
		add := func(format catalog.Format, img []byte, register func(e *Engine, img []byte) error) {
			tab := &catalog.Table{Name: "t", Format: format, Tree: "t", Schema: g.schema}
			src := newSource(format, policy, img, nil)
			if err := src.load(tab); err != nil {
				t.Fatal(err)
			}
			cases = append(cases, sourceCase{
				name: fmt.Sprintf("%s/%s", format, in.name), tab: tab, src: src,
				size: int64(len(img)), rows: int64(in.rows),
				register: func(e *Engine) error { return register(e, img) },
			})
		}
		add(catalog.CSV, text(g.csv), func(e *Engine, img []byte) error { return e.RegisterCSVData("t", img, g.schema) })
		add(catalog.JSON, text(g.json), func(e *Engine, img []byte) error { return e.RegisterJSONData("t", img, g.schema) })
		add(catalog.Binary, g.bin, func(e *Engine, img []byte) error { return e.RegisterBinaryData("t", img, g.schema) })
		add(catalog.Root, g.root, func(e *Engine, img []byte) error { return e.RegisterRootData("t", img, "t", g.schema) })
	}
	return cases
}

// encodeState renders everything queries published for table t in its vault
// form, the representation two equal structures must share byte for byte.
func encodeState(e *Engine, st *tableState) map[string][]byte {
	out := make(map[string][]byte)
	var fp vault.Fingerprint
	for _, s := range st.slots() {
		if x := s.get(); x != nil {
			out[s.kind.String()] = vault.Encode(fp, x)
		}
	}
	if e != nil {
		var ts []vault.TableShred
		for _, s := range e.shreds.ShredsOf(st.tab.Name) {
			ts = append(ts, vault.TableShred{Col: s.Key().Col, RowIDs: s.RowIDs(), Vec: s.Values()})
		}
		if len(ts) > 0 {
			out["shreds"] = vault.EncodeShreds(fp, ts)
		}
	}
	return out
}

// TestSourceContract holds every input plug-in to the contract the planner
// relies on: spans tile the table, scanning them one by one reads what one
// whole-table scan reads and builds what it builds, and publication adopts a
// lone fragment rather than copying it.
func TestSourceContract(t *testing.T) {
	policy := posmap.Policy{EveryK: 2}
	cols := []int{0, 2, 3}
	const nranges = 8
	for _, c := range sourceCases(t, policy) {
		t.Run(c.name, func(t *testing.T) {
			// scanAll reads cols over each span in turn.
			scanAll := func(pos positions, mode jit.Mode, spans []span) (rows [][]int64, frags []fragment) {
				for _, sp := range spans {
					op, frag, err := c.src.scan(c.tab, pos, scanReq{mode: mode, span: sp, cols: cols, batch: 64, track: true})
					if err != nil {
						t.Fatal(err)
					}
					vecs, err := exec.Collect(op)
					if err != nil {
						t.Fatal(err)
					}
					for r := 0; r < vecs[0].Len(); r++ {
						rows = append(rows, []int64{vecs[0].Int64s[r], vecs[1].Int64s[r], vecs[2].Int64s[r]})
					}
					if frag != nil {
						frags = append(frags, frag)
					}
				}
				return rows, frags
			}
			// tiles checks spans are non-empty, in order, disjoint and cover
			// [0, total); byte spans must also end on record boundaries.
			tiles := func(spans []span, total int64, img []byte) {
				next := int64(0)
				for i, sp := range spans {
					if sp.lo != next || sp.hi <= sp.lo {
						t.Fatalf("span %d = %+v, want a non-empty span from %d (all: %+v)", i, sp, next, spans)
					}
					if img != nil && sp.hi < total && img[sp.hi-1] != '\n' {
						t.Fatalf("span %d ends mid-record at byte %d", i, sp.hi)
					}
					next = sp.hi
				}
				if len(spans) > nranges || (len(spans) > 0 && next != total) || (len(spans) == 0 && total > 0) {
					t.Fatalf("%d spans cover [0,%d) of [0,%d): %+v", len(spans), next, total, spans)
				}
			}

			cold, err := c.src.access(c.tab, positions{}, cols, scanGenerated)
			if err != nil {
				t.Fatal(err)
			}
			wholeRows, wholeFrags := scanAll(positions{}, cold.mode, []span{wholeTable})
			if int64(len(wholeRows)) != c.rows {
				t.Fatalf("whole-table scan read %d rows, want %d", len(wholeRows), c.rows)
			}
			spans := c.src.split(positions{}, cold.mode, nranges)
			if cold.mode == jit.Sequential {
				tiles(spans, c.size, c.src.image())
			} else {
				tiles(spans, c.rows, nil)
			}
			if c.rows > 0 && c.rows < nranges && int64(len(spans)) > c.rows {
				t.Fatalf("%d spans for %d records", len(spans), c.rows)
			}
			partRows, partFrags := scanAll(positions{}, cold.mode, spans)
			if len(spans) > 0 && !reflect.DeepEqual(partRows, wholeRows) {
				t.Fatalf("scanning %d spans read different rows than one whole-table scan", len(spans))
			}
			if len(wholeFrags) == 0 {
				return // binary, ROOT: nothing to build, rows are addressed natively
			}

			// Publication: a lone fragment is adopted, several merge to its equal.
			adopted := &tableState{tab: c.tab}
			if _, err := c.src.publish(adopted, wholeFrags, []span{wholeTable}); err != nil {
				t.Fatal(err)
			}
			if pos := adopted.positions(); fragment(pos.pm) != wholeFrags[0] && fragment(pos.jidx) != wholeFrags[0] {
				t.Fatal("single-fragment publish copied the fragment instead of installing it")
			}
			if len(spans) == 0 {
				return
			}
			merged := &tableState{tab: c.tab}
			if _, err := c.src.publish(merged, partFrags, spans); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(encodeState(nil, merged), encodeState(nil, adopted)) {
				t.Fatalf("structure merged from %d fragments differs from the one a whole-table scan built", len(partFrags))
			}

			// Warm: the published structure addresses rows, in row-range spans.
			pos := merged.positions()
			warm, err := c.src.access(c.tab, pos, cols, scanGenerated)
			if err != nil || warm.mode != jit.ViaMap {
				t.Fatalf("access over the published structure = %+v, %v; want a positional read", warm, err)
			}
			spans = c.src.split(pos, warm.mode, nranges)
			tiles(spans, c.rows, nil)
			if rows, _ := scanAll(pos, warm.mode, spans); !reflect.DeepEqual(rows, wholeRows) {
				t.Fatal("positional scan over row ranges read different rows than the cold scan")
			}
		})
	}
}

// TestSourcePublication runs the same query with one whole-table scan and
// with morsels, per plug-in: the answer and every published structure —
// positional map, structural index, synopsis, full shreds — must be equal in
// their encoded form, and a cancelled or failing scan must publish none.
func TestSourcePublication(t *testing.T) {
	policy := posmap.Policy{EveryK: 2}
	const q = "SELECT col1, col3 FROM t WHERE col4 >= 0"
	// One row per batch and per zone-map block (binary and ROOT scans close
	// blocks at batch ends): fragment boundaries then fall on block boundaries wherever
	// the splitter puts them.
	cfg := Config{Strategy: StrategyJIT, PosMapPolicy: policy, SynopsisBlockRows: 1, BatchSize: 1}
	for _, c := range sourceCases(t, policy) {
		t.Run(c.name, func(t *testing.T) {
			var want *Result
			var wantState map[string][]byte
			for _, workers := range []int{1, 4} {
				e := New(cfg)
				if err := c.register(e); err != nil {
					t.Fatal(err)
				}
				res := queryAt(t, e, q, workers)
				parallel := strings.HasPrefix(res.Stats.AccessPaths[0], "par[")
				if want := workers > 1 && c.rows >= 2; parallel != want {
					t.Fatalf("workers %d: paths %v", workers, res.Stats.AccessPaths)
				}
				state := encodeState(e, e.tables["t"])
				if c.rows > 0 && len(state) < 2 {
					t.Fatalf("workers %d published only %d structures", workers, len(state))
				}
				if want == nil {
					want, wantState = res, state
					continue
				}
				sameResult(t, c.name, res, want)
				for k := range wantState {
					if !reflect.DeepEqual(state[k], wantState[k]) {
						t.Fatalf("morsel scans published a different %s than the whole-table scan", k)
					}
				}
				if len(state) != len(wantState) {
					t.Fatalf("morsel scans published %d structures, the whole-table scan %d", len(state), len(wantState))
				}
			}

			// Nothing of an unfinished scan may surface: cancelled before the
			// first batch, and (CSV) failing on a corrupt last record.
			abort := func(label string, register func(e *Engine) error, ctx context.Context) {
				for _, workers := range []int{1, 4} {
					e := New(cfg)
					if err := register(e); err != nil {
						t.Fatal(err)
					}
					if _, err := e.QueryOptCtx(ctx, q, Options{Parallelism: &workers}); err == nil {
						t.Fatalf("%s, workers %d: query succeeded", label, workers)
					}
					if state := encodeState(e, e.tables["t"]); len(state) != 0 {
						t.Fatalf("%s, workers %d: published %d structures", label, workers, len(state))
					}
				}
			}
			if c.rows == 0 {
				return
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			abort("cancelled", c.register, ctx)
			if img := c.src.image(); c.tab.Format == catalog.CSV {
				bad := append([]byte{}, img...)
				if bad[len(bad)-1] != '\n' {
					bad = append(bad, '\n')
				}
				bad = append(bad, "x,2,3,4,5\n"...)
				abort("corrupt", func(e *Engine) error { return e.RegisterCSVData("t", bad, c.tab.Schema) }, context.Background())
			}
		})
	}
}
