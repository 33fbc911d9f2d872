package jit

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/jsonidx"
	"rawdb/internal/posmap"
	"rawdb/internal/storage/binfile"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

// rowScanner is what the planner uses of a row-addressed access path.
type rowScanner interface {
	exec.Operator
	SetRowRange(start, end int64) error
	PushStats() (rowsPruned, blocksSkipped int64)
}

// rowScanFormat is one row-addressed access path under the contract test:
// how to build it, its columns, the two columns predicates go on, and the
// reference values of every needed column (the sequential scan's output).
type rowScanFormat struct {
	name      string
	tab       *catalog.Table
	need      []int
	predCols  [2]int
	ref       []*vector.Vector // aligned with need
	build     func(t *testing.T, push Pushdown, emitRID bool) rowScanner
	dropsSkip bool     // the path records adaptively and so never skips
	recorded  []string // paths its recording must add to the index after a whole-table scan
	// recording returns the last built scan's index, what that index tracked
	// before the scan, and the scan's recording.
	recording func() (idx *jsonidx.Index, tracked []string, rec *jsonidx.Recorder)
	refIdx    *jsonidx.Index
}

func seqReference(t *testing.T, op exec.Operator) []*vector.Vector {
	t.Helper()
	out, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func rowScanFormats(t *testing.T) []*rowScanFormat {
	const rows, bs = 300, 37
	var formats []*rowScanFormat

	// CSV via the positional map: tracked columns 0, 4, 8.
	csvData, binData, tab, vals := genTable(t, rows, 9, 31)
	pm := posmap.New(posmap.Policy{EveryK: 4}, 9)
	seq, err := NewCSVSequentialScan(csvData, tab, []int{0}, pm, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	seqReference(t, seq)
	csvNeed := []int{1, 8, 5}
	csvRef, err := NewCSVSequentialScan(csvData, tab, csvNeed, nil, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	formats = append(formats, &rowScanFormat{name: "csv", tab: tab, need: csvNeed, predCols: [2]int{5, 1},
		ref: seqReference(t, csvRef),
		build: func(t *testing.T, push Pushdown, emitRID bool) rowScanner {
			s, err := NewCSVMapScanPush(csvData, tab, csvNeed, pm, emitRID, bs, push)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}})

	// Binary: the same values at fixed offsets.
	btab := *tab
	btab.Format = catalog.Binary
	rd, err := binfile.NewReader(binData)
	if err != nil {
		t.Fatal(err)
	}
	binNeed := []int{0, 6, 3}
	binRef, err := NewCSVSequentialScan(csvData, tab, binNeed, nil, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	formats = append(formats, &rowScanFormat{name: "bin", tab: &btab, need: binNeed, predCols: [2]int{6, 3},
		ref: seqReference(t, binRef),
		build: func(t *testing.T, push Pushdown, emitRID bool) rowScanner {
			s, err := NewBinScanPush(rd, &btab, binNeed, emitRID, bs, push)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}})

	// ROOT: the same values in baskets of 50 entries, read by id, from an
	// uncompressed image and from a compressed one.
	rtab := *tab
	rtab.Format, rtab.Tree = catalog.Root, "t"
	rootNeed := []int{7, 2, 4}
	rootRef, err := NewCSVSequentialScan(csvData, tab, rootNeed, nil, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	rref := seqReference(t, rootRef)
	for _, compress := range []bool{false, true} {
		var rbuf bytes.Buffer
		w := rootfile.NewWriter(&rbuf, rootfile.Options{BasketEntries: 50, Compress: compress})
		tw := w.Tree("t")
		for c, col := range tab.Schema {
			br := tw.Branch(col.Name, vector.Int64)
			for _, row := range vals {
				br.AppendInt64(row[c])
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rf, err := rootfile.Parse(rbuf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		tree, err := rf.Tree("t")
		if err != nil {
			t.Fatal(err)
		}
		name := map[bool]string{false: "root", true: "root-compressed"}[compress]
		formats = append(formats, &rowScanFormat{name: name, tab: &rtab, need: rootNeed, predCols: [2]int{2, 4},
			ref: rref,
			build: func(t *testing.T, push Pushdown, emitRID bool) rowScanner {
				s, err := NewRootScanPush(tree, &rtab, rootNeed, emitRID, bs, push)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}})
	}

	// JSON via the structural index, every path tracked.
	jdata, jtab, _, _ := genJSONTable(t, rows, 32)
	full := jsonidx.New()
	allPaths, err := NewJSONSequentialScan(jdata, jtab, []int{0, 1, 2, 3, 4}, full, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	jref := seqReference(t, allPaths)
	pick := func(need []int) []*vector.Vector {
		out := make([]*vector.Vector, len(need))
		for i, c := range need {
			out[i] = jref[c]
		}
		return out
	}
	trackedNeed := []int{0, 2, 4}
	formats = append(formats, &rowScanFormat{name: "json-tracked", tab: jtab, need: trackedNeed,
		predCols: [2]int{2, 0}, ref: pick(trackedNeed),
		build: func(t *testing.T, push Pushdown, emitRID bool) rowScanner {
			s, rec, err := NewJSONMapScanPush(jdata, jtab, trackedNeed, full, trackedNeed, emitRID, bs, push)
			if err != nil || rec != nil {
				t.Fatalf("tracked paths: recording %v, error %v", rec, err)
			}
			return s
		}})

	// JSON via the structural index, two paths recorded adaptively: one under
	// a predicate (read dense first), one read under the selection.
	adaptNeed := []int{0, 3, 4, 2}
	af := &rowScanFormat{name: "json-adaptive", tab: jtab, need: adaptNeed, predCols: [2]int{3, 0},
		ref: pick(adaptNeed), dropsSkip: true, recorded: []string{"payload.eta", "payload.ncells"},
		refIdx: full}
	var idx *jsonidx.Index
	var tracked []string
	var rec *jsonidx.Recorder
	af.recording = func() (*jsonidx.Index, []string, *jsonidx.Recorder) { return idx, tracked, rec }
	af.build = func(t *testing.T, push Pushdown, emitRID bool) rowScanner {
		idx = jsonidx.New()
		s1, err := NewJSONSequentialScan(jdata, jtab, []int{0, 2}, idx, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		seqReference(t, s1)
		tracked = idx.TrackedPaths()
		var s *RowScan
		if s, rec, err = NewJSONMapScanPush(jdata, jtab, adaptNeed, idx, adaptNeed, emitRID, bs, push); err != nil {
			t.Fatal(err)
		}
		return s
	}
	formats = append(formats, af)

	// JSON via the structural index, two paths untracked and not recorded:
	// one under a predicate (read on every row), one read under the
	// selection, both found from the row start.
	part := jsonidx.New()
	s2, err := NewJSONSequentialScan(jdata, jtab, []int{0, 2}, part, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	seqReference(t, s2)
	untrackedNeed := []int{0, 3, 2, 4}
	formats = append(formats, &rowScanFormat{name: "json-untracked", tab: jtab, need: untrackedNeed,
		predCols: [2]int{4, 0}, ref: pick(untrackedNeed),
		build: func(t *testing.T, push Pushdown, emitRID bool) rowScanner {
			s, rec, err := NewJSONMapScanPush(jdata, jtab, untrackedNeed, part, nil, emitRID, bs, push)
			if err != nil || rec != nil {
				t.Fatalf("unrecorded paths: recording %v, error %v", rec, err)
			}
			return s
		}})
	return formats
}

// contractPreds returns the predicate sets of the contract: none, a
// conjunction every row passes, one some rows pass, and one no row passes.
func contractPreds(f *rowScanFormat) map[string][]exec.Pred {
	lit := func(c int, rank float64, delta int64) exec.Pred {
		slot := -1
		for i, n := range f.need {
			if n == c {
				slot = i
			}
		}
		v := f.ref[slot]
		var vals []float64
		for i := 0; i < v.Len(); i++ {
			if v.Type == vector.Int64 {
				vals = append(vals, float64(v.Int64s[i]))
			} else {
				vals = append(vals, v.Float64s[i])
			}
		}
		sort.Float64s(vals)
		x := vals[int(rank*float64(len(vals)-1))]
		if v.Type == vector.Int64 {
			return exec.Pred{Col: c, I64: int64(x) + delta}
		}
		return exec.Pred{Col: c, F64: x + float64(delta)}
	}
	with := func(p exec.Pred, op exec.CmpOp) exec.Pred { p.Op = op; return p }
	a, b := f.predCols[0], f.predCols[1]
	return map[string][]exec.Pred{
		"none": nil,
		"all":  {with(lit(a, 0, 0), exec.Ge), with(lit(b, 1, 0), exec.Le)},
		"some": {with(lit(a, 0.5, 0), exec.Lt), with(lit(b, 0.25, 0), exec.Gt)},
		"zero": {with(lit(a, 0.3, 0), exec.Gt), with(lit(a, 0, -1), exec.Lt)},
	}
}

// rowPasses is the naive filter: the conjunction over one reference row.
func rowPasses(f *rowScanFormat, preds []exec.Pred, row int) bool {
	for _, p := range preds {
		for i, c := range f.need {
			if c != p.Col {
				continue
			}
			v := f.ref[i]
			if v.Type == vector.Int64 && !p.MatchInt64(v.Int64s[row]) ||
				v.Type == vector.Float64 && !p.MatchFloat64(v.Float64s[row]) {
				return false
			}
		}
	}
	return true
}

// contractBatch is one batch the contract expects: its first row, physical
// length and selection.
type contractBatch struct {
	start int64
	m     int
	sel   []int32
}

// expectBatches walks [lo, hi) in batches of bs the way every row-addressed
// scan must: skipped ranges count as pruned, ranges no row survives emit
// nothing, a range every row survives carries no selection.
func expectBatches(f *rowScanFormat, preds []exec.Pred, skip func(int64, int64) bool,
	lo, hi int64, bs int) (batches []contractBatch, pruned, skipped int64) {
	for r := lo; r < hi; r += int64(bs) {
		end := min(r+int64(bs), hi)
		if skip != nil && skip(r, end) {
			skipped++
			pruned += end - r
			continue
		}
		m := int(end - r)
		var sel []int32
		for i := 0; i < m; i++ {
			if rowPasses(f, preds, int(r)+i) {
				sel = append(sel, int32(i))
			}
		}
		pruned += int64(m - len(sel))
		switch len(sel) {
		case 0:
			continue
		case m:
			sel = nil
		}
		batches = append(batches, contractBatch{start: r, m: m, sel: sel})
	}
	return batches, pruned, skipped
}

// binSynopsis is the zone map a binary or ROOT scan must build: the observed columns
// (the predicate columns, else all it reads) over every range it decodes,
// advanced a batch at a time.
func binSynopsis(f *rowScanFormat, observed map[int]vector.Type, lo, hi int64, bs int) *synopsis.Synopsis {
	b := synopsis.NewBuilder(100, observed)
	for r := lo; r < hi; r += int64(bs) {
		end := min(r+int64(bs), hi)
		for i, c := range f.need {
			if acc := b.Acc(c); acc != nil {
				for row := r; row < end; row++ {
					acc.ObserveInt64(f.ref[i].Int64s[row])
				}
			}
		}
		b.Advance(end - r)
	}
	return b.Finish()
}

// TestRowScanContract pins what every row-addressed access path (CSV through
// the positional map, JSON through the structural index — tracked, recording
// adaptively, and untracked without recording — binary and ROOT) delivers, whatever code shape it has:
// the same values as a naive filter over the sequential scan's output, the
// same batch boundaries and selection vectors, the same pushdown counters,
// a recording that publishes complete after a whole-table adaptive scan
// (including one every row of which is pruned) and leaves the scanned index
// alone, and the same binary and ROOT zone map.
func TestRowScanContract(t *testing.T) {
	const bs = 37
	skipEveryThird := func(start, end int64) bool { return start%3 == 1 }
	for _, f := range rowScanFormats(t) {
		nrows := int64(f.ref[0].Len())
		for predName, preds := range contractPreds(f) {
			for _, rng := range [][2]int64{{0, nrows}, {41, 211}} {
				for _, emitRID := range []bool{false, true} {
					for _, skipOn := range []bool{false, true} {
						variants := []bool{false}
						if (f.name == "bin" || strings.HasPrefix(f.name, "root")) && !skipOn {
							variants = append(variants, true)
						}
						for _, withSyn := range variants {
							name := fmt.Sprintf("%s/%s/rows=%d-%d/rid=%v/skip=%v/syn=%v",
								f.name, predName, rng[0], rng[1], emitRID, skipOn, withSyn)
							t.Run(name, func(t *testing.T) {
								push := Pushdown{Preds: preds}
								if skipOn {
									push.Skip = skipEveryThird
								}
								var synObs map[int]vector.Type
								if withSyn {
									synObs = map[int]vector.Type{}
									for _, p := range preds {
										synObs[p.Col] = vector.Int64
									}
									if len(preds) == 0 {
										for _, c := range f.need {
											synObs[c] = vector.Int64
										}
									}
									push.Syn = synopsis.NewBuilder(100, synObs)
								}
								s := f.build(t, push, emitRID)
								whole := rng == [2]int64{0, nrows}
								if !whole {
									if err := s.SetRowRange(rng[0], rng[1]); err != nil {
										t.Fatal(err)
									}
								}
								expSkip := push.Skip
								if f.dropsSkip {
									expSkip = nil
								}
								want, wantPruned, wantSkipped := expectBatches(f, preds, expSkip, rng[0], rng[1], bs)
								checkRowScan(t, f, s, want, emitRID)
								if p, k := s.PushStats(); p != wantPruned || k != wantSkipped {
									t.Fatalf("PushStats = (%d, %d), want (%d, %d)", p, k, wantPruned, wantSkipped)
								}
								if withSyn {
									got := push.Syn.Finish()
									exp := binSynopsis(f, synObs, rng[0], rng[1], bs)
									if got.NRows() != exp.NRows() || !reflect.DeepEqual(got.Bounds(), exp.Bounds()) ||
										!reflect.DeepEqual(got.Columns(), exp.Columns()) {
										t.Fatalf("synopsis: got rows %d bounds %v cols %+v, want rows %d bounds %v cols %+v",
											got.NRows(), got.Bounds(), got.Columns(), exp.NRows(), exp.Bounds(), exp.Columns())
									}
								}
								if f.recording != nil {
									checkRecording(t, f, whole)
								}
							})
						}
					}
				}
			}
		}
	}
}

// checkRecording publishes the recording of f's last scan: it adds exactly
// f.recorded, at the sequential scan's offsets, after a whole-table scan and
// nothing after a ranged one, and the scanned index stays as it was.
func checkRecording(t *testing.T, f *rowScanFormat, whole bool) {
	t.Helper()
	idx, tracked, rec := f.recording()
	published := rec.Publish(idx)
	if got := idx.TrackedPaths(); !reflect.DeepEqual(got, tracked) {
		t.Fatalf("the scan changed its index: tracks %v, want %v", got, tracked)
	}
	want := tracked
	if whole {
		want = append(slices.Clone(tracked), f.recorded...)
		sort.Strings(want)
	}
	if got := published.TrackedPaths(); !reflect.DeepEqual(got, want) {
		t.Fatalf("published index tracks %v, want %v", got, want)
	}
	if !whole {
		return
	}
	if published.RowStarts() != idx.RowStarts() {
		t.Fatal("published index does not share the scanned index's row starts")
	}
	for _, p := range f.recorded {
		if !reflect.DeepEqual(published.Peek(p).Decode(nil, 0, published.NRows()), f.refIdx.Peek(p).Decode(nil, 0, f.refIdx.NRows())) {
			t.Fatalf("path %q recorded offsets differ from the sequential scan's", p)
		}
	}
}

// checkRowScan drains s batch by batch against the expected batches.
func checkRowScan(t *testing.T, f *rowScanFormat, s rowScanner, want []contractBatch, emitRID bool) {
	t.Helper()
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for bi := 0; ; bi++ {
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			if bi != len(want) {
				t.Fatalf("%d batches, want %d", bi, len(want))
			}
			return
		}
		if bi >= len(want) {
			t.Fatalf("more than the %d batches expected", len(want))
		}
		w := want[bi]
		if b.Len() != w.m {
			t.Fatalf("batch %d: %d physical rows, want %d", bi, b.Len(), w.m)
		}
		if !reflect.DeepEqual(b.Sel, w.sel) {
			t.Fatalf("batch %d (rows from %d): sel %v, want %v", bi, w.start, b.Sel, w.sel)
		}
		live := w.sel
		if live == nil {
			for i := 0; i < w.m; i++ {
				live = append(live, int32(i))
			}
		}
		for slot := range f.need {
			for _, i := range live {
				if got, exp := b.Cols[slot].Value(int(i)), f.ref[slot].Value(int(w.start)+int(i)); got != exp {
					t.Fatalf("batch %d slot %d row %d: %v, want %v", bi, slot, w.start+int64(i), got, exp)
				}
			}
		}
		wantCols := len(f.need)
		if emitRID {
			wantCols++
			rid := b.Cols[len(f.need)]
			if rid.Len() != w.m {
				t.Fatalf("batch %d: %d row ids for %d rows", bi, rid.Len(), w.m)
			}
			for i := 0; i < w.m; i++ {
				if rid.Int64s[i] != w.start+int64(i) {
					t.Fatalf("batch %d: rid[%d] = %d, want %d", bi, i, rid.Int64s[i], w.start+int64(i))
				}
			}
		}
		if len(b.Cols) != wantCols || len(s.Schema()) != wantCols {
			t.Fatalf("batch %d: %d columns, schema %d, want %d", bi, len(b.Cols), len(s.Schema()), wantCols)
		}
	}
}
