package jit

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rawdb/internal/bytesconv"
	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/jsonidx"
	"rawdb/internal/posmap"
	"rawdb/internal/storage/csvfile"
	"rawdb/internal/storage/jsonfile"
	"rawdb/internal/vector"
)

// The CSV and JSON late fetches read a batch at a time: positions decoded
// per batch, a load pass, one-pass number parsing and, for untracked JSON
// paths, a learned skeleton. These tests hold them to per-row references
// built from the plain primitives (At, SkipFields, FieldBounds, FindPath and
// the slice parsers): whatever the bytes and the row ids, the same values or
// the same error.

// lateRids derives a list of row ids for an nrows-row table from fuzzer
// bytes, in one of six shapes: dense ascending, sparse ascending, unsorted
// with duplicates, ascending with out-of-range ids, descending, and
// ascending with duplicates.
func lateRids(b []byte, mode byte, nrows int64) []int64 {
	var rids []int64
	for _, x := range b {
		rids = append(rids, int64(x)%(nrows+2)-1) // -1 and nrows are out of range
	}
	inRange := func(r int64) bool { return r >= 0 && r < nrows }
	switch mode % 6 {
	case 0: // dense ascending, from the first in-range id
		lo := int64(0)
		if len(rids) > 0 && inRange(rids[0]) {
			lo = rids[0]
		}
		rids = rids[:0]
		for r := lo; r < nrows && len(rids) < len(b); r++ {
			rids = append(rids, r)
		}
	case 1: // sparse ascending
		rids = slices.DeleteFunc(rids, func(r int64) bool { return !inRange(r) })
		slices.Sort(rids)
		rids = slices.Compact(rids)
	case 2: // unsorted, duplicates and out-of-range ids kept
	case 3: // ascending, out-of-range ids kept
		slices.Sort(rids)
		rids = slices.Compact(rids)
	case 4: // descending
		slices.Sort(rids)
		rids = slices.Compact(rids)
		slices.Reverse(rids)
	case 5: // ascending with duplicates
		rids = slices.DeleteFunc(rids, func(r int64) bool { return !inRange(r) })
		slices.Sort(rids)
	}
	return rids
}

// runLate calls fetch over rids in batches of batch ids, as a late scan does,
// and renders what it returned, up to and including the first error.
func runLate(fetch exec.Fetch, types []vector.Type, rids []int64, batch int) string {
	var out strings.Builder
	outs := make([]*vector.Vector, len(types))
	for i, typ := range types {
		outs[i] = vector.New(typ, 0)
	}
	for len(rids) > 0 {
		n := min(batch, len(rids))
		for _, o := range outs {
			o.Reset()
		}
		if err := fetch(rids[:n], outs); err != nil {
			fmt.Fprintf(&out, "error: %v\n", err)
			return out.String()
		}
		renderVectors(&out, outs)
		rids = rids[n:]
	}
	return out.String()
}

// renderVectors renders one line of outs, floats bit for bit.
func renderVectors(out *strings.Builder, outs []*vector.Vector) {
	for _, o := range outs {
		fmt.Fprint(out, o.Int64s)
		for _, f := range o.Float64s {
			fmt.Fprintf(out, " %x", math.Float64bits(f))
		}
		out.WriteByte('|')
	}
	out.WriteByte('\n')
}

// checkRange is both references' first step: a batch with a row id out of
// range fails on the first such id, before any value is read.
func checkRange(rids []int64, nrows int64) error {
	for _, r := range rids {
		if r < 0 || r >= nrows {
			return fmt.Errorf("jit: row id %d out of range", r)
		}
	}
	return nil
}

// csvLateRef is the per-row reference of CSVLateFetch over sorted cols: per
// group of columns reached from one tracked column, per row, per column, a
// jump to the tracked column (At), SkipFields to the column, FieldBounds and
// the slice parser.
func csvLateRef(data []byte, tab *catalog.Table, cols []int, pm *posmap.Map) exec.Fetch {
	return func(rids []int64, outs []*vector.Vector) error {
		if err := checkRange(rids, pm.NRows()); err != nil {
			return err
		}
		for lo := 0; lo < len(cols); {
			anchor, _ := pm.Nearest(cols[lo])
			hi := lo + 1
			for hi < len(cols) && func() bool { a, _ := pm.Nearest(cols[hi]); return a == anchor }() {
				hi++
			}
			for _, r := range rids {
				for slot := lo; slot < hi; slot++ {
					c := cols[slot]
					pos := csvfile.SkipFields(data, int(pm.Positions(anchor).At(r)), c-anchor)
					start, end, _ := csvfile.FieldBounds(data, pos)
					var err error
					if tab.Schema[c].Type == vector.Int64 {
						var v int64
						v, err = bytesconv.ParseInt64(data[start:end])
						outs[slot].AppendInt64(v)
					} else {
						var v float64
						v, err = bytesconv.ParseFloat64(data[start:end])
						outs[slot].AppendFloat64(v)
					}
					if err != nil {
						return fmt.Errorf("jit csv: row %d col %d: %w", r, c, err)
					}
				}
			}
			lo = hi
		}
		return nil
	}
}

// csvLateTokens are the cells FuzzCSVLateFetch writes: plain numbers and the
// forms the one-pass parsers leave to the general ones, malformed cells, and
// cells that add a field or end the row early.
var csvLateTokens = []string{
	"0", "7", "-42", "+7", "-0", "00042", "123456789012345678", "-123456789012345678",
	"1234567890123456789", "98765432109876543210", "9223372036854775807",
	"-9223372036854775808", "-9223372036854775809", "", "1e3", "-2.5E-3", "1.5",
	"-0.000001", "3.25", "12345678901234567.5", "9007199254740993", "90071992.54740992",
	"0.1234567890123456789", "1.", ".5", "1e400", "+1.5", "12a", " 5", "5 ", "-", "+",
	"1,2", "3\n4",
}

// csvLateImage renders rows rows of ncols cells picked by cells, each row
// ending in "\n" or "\r\n", the last one without a terminator when open.
func csvLateImage(cells []byte, rows, ncols int, open bool) []byte {
	var buf bytes.Buffer
	k := 0
	next := func() byte {
		if len(cells) == 0 {
			return 0
		}
		k++
		return cells[(k-1)%len(cells)]
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < ncols; c++ {
			if c > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(csvLateTokens[int(next())%len(csvLateTokens)])
		}
		if r < rows-1 || !open {
			if next()%3 == 0 {
				buf.WriteString("\r\n")
			} else {
				buf.WriteByte('\n')
			}
		}
	}
	b := buf.Bytes()
	return b[:len(b):len(b)] // a read past the image panics
}

// csvLateMap builds the positional map of data over ncols columns, tracking
// every k-th column, by walking each row's fields with SkipFields.
func csvLateMap(t testing.TB, data []byte, ncols, k int) *posmap.Map {
	t.Helper()
	pm := posmap.New(posmap.Policy{EveryK: k}, ncols)
	tracked := pm.TrackedColumns()
	row := make([]int64, len(tracked))
	for rs := 0; rs < len(data); rs = csvfile.SkipRow(data, rs) {
		p, i := rs, 0
		for c := 0; c < ncols; c++ {
			if i < len(tracked) && tracked[i] == c {
				row[i] = int64(p)
				i++
			}
			p = csvfile.SkipFields(data, p, 1)
		}
		pm.AppendRow(row)
	}
	pm.Clip()
	return pm
}

func FuzzCSVLateFetch(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(12), uint8(5), uint8(2), uint8(0b1011), true, []byte{3, 9, 1, 4}, uint8(0), uint8(3))
	f.Add([]byte{13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26}, uint8(30), uint8(6), uint8(3), uint8(0b110110), false, []byte{0, 5, 2, 9, 33, 4, 4}, uint8(1), uint8(2))
	f.Add([]byte{27, 28, 29, 30, 31, 32, 33, 2, 6}, uint8(9), uint8(3), uint8(1), uint8(0b101), true, []byte{8, 1, 1, 7, 0, 12}, uint8(2), uint8(4))
	f.Add([]byte("arbitrary cells"), uint8(40), uint8(4), uint8(4), uint8(0b1111), false, []byte{200, 1, 2, 3, 255}, uint8(3), uint8(1))
	f.Add([]byte{1, 2, 3}, uint8(255), uint8(7), uint8(2), uint8(0b1000000), true, []byte("abcdefghijkl"), uint8(4), uint8(7))
	f.Fuzz(csvLateCheck)
}

// TestCSVLateFetchAgainstReference runs csvLateCheck over every cell form,
// row-id shape and anchor spacing, so that each reaches a fetched column.
func TestCSVLateFetchAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cells := make([]byte, 3*len(csvLateTokens))
	for i := range cells {
		cells[i] = byte(i % len(csvLateTokens))
	}
	for i := 0; i < 600; i++ {
		rng.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
		rb := make([]byte, 1+rng.Intn(40))
		rng.Read(rb)
		csvLateCheck(t, cells, uint8(rng.Intn(48)), uint8(i%7), uint8(i%4), uint8(rng.Intn(256)), i%2 == 0,
			rb, uint8(i%6), uint8(rng.Intn(16)))
	}
}

// csvLateCheck is one FuzzCSVLateFetch case: a CSV image of rows rows and
// ncols columns whose cells picks, typed by the first cell's bits, a map
// tracking every every-th column, the columns colMask picks, and row ids
// from rb in the shape mode picks, fetched in batches of batch.
func csvLateCheck(t *testing.T, cells []byte, rows, ncols, every, colMask uint8, open bool, rb []byte, mode, batch uint8) {
	nc := int(ncols)%7 + 1
	data := csvLateImage(cells, int(rows)%48+1, nc, open)
	tab := &catalog.Table{Name: "t", Format: catalog.CSV}
	var cols []int
	for c := 0; c < nc; c++ {
		typ := vector.Int64
		if (int(cells0(cells))>>c)&1 == 1 {
			typ = vector.Float64
		}
		tab.Schema = append(tab.Schema, catalog.Column{Name: colName(c), Type: typ})
		if colMask>>c&1 == 1 {
			cols = append(cols, c)
		}
	}
	if len(cols) == 0 {
		cols = []int{nc - 1}
	}
	pm := csvLateMap(t, data, nc, int(every)%4+1)
	if pm.NRows() == 0 {
		return // an empty image: the fetch requires a populated map
	}
	types := make([]vector.Type, len(cols))
	for i, c := range cols {
		types[i] = tab.Schema[c].Type
	}
	fetch, err := CSVLateFetch(data, tab, slices.Clone(cols), pm)
	if err != nil {
		t.Fatal(err)
	}
	rids := lateRids(rb, mode, pm.NRows())
	size := int(batch)%16 + 1
	got := runLate(fetch, types, rids, size)
	want := runLate(csvLateRef(data, tab, cols, pm), types, rids, size)
	if got != want {
		t.Fatalf("cols %v rids %v batch %d over\n%q\nbatch fetch:\n%s\nper-row reference:\n%s", cols, rids, size, data, got, want)
	}
}

// cells0 picks the fuzz case's column types from its first cell byte.
func cells0(cells []byte) byte {
	if len(cells) == 0 {
		return 0
	}
	return cells[0]
}

// jsonLateRef is the per-row reference of JSONLateFetch: per column, per row,
// FindPath from the row start and the slice parser over NumberEnd's token.
func jsonLateRef(data []byte, tab *catalog.Table, cols []int, idx *jsonidx.Index) exec.Fetch {
	return func(rids []int64, outs []*vector.Vector) error {
		if err := checkRange(rids, idx.NRows()); err != nil {
			return err
		}
		for i, c := range cols {
			path := tab.Schema[c].Name
			for _, r := range rids {
				pos := jsonfile.FindPath(data, int(idx.RowStart(r)), jsonfile.SplitPath(path))
				if pos < 0 {
					return fmt.Errorf("jit json: row %d: path %q absent", r, path)
				}
				tok := data[pos:jsonfile.NumberEnd(data, pos)]
				var err error
				if tab.Schema[c].Type == vector.Int64 {
					var v int64
					v, err = bytesconv.ParseInt64(tok)
					outs[i].AppendInt64(v)
				} else {
					var v float64
					v, err = bytesconv.ParseFloat64(tok)
					outs[i].AppendFloat64(v)
				}
				if err != nil {
					return fmt.Errorf("jit json: row %d path %q: %w", r, path, err)
				}
			}
		}
		return nil
	}
}

// jsonLateIndex builds a structural index of data's rows (blank lines
// skipped, as the scans do), tracking the paths of skelTable's columns in
// tracked that every row holds, at FindPath's offsets.
func jsonLateIndex(data []byte, tracked []int) *jsonidx.Index {
	var rows []int64
	for pos := 0; pos < len(data); pos = jsonfile.NextRow(data, pos) {
		if data[pos] != '\n' {
			rows = append(rows, int64(pos))
		}
	}
	var paths []string
	var cols [][]int64
	for _, c := range tracked {
		path := skelTable.Schema[c].Name
		var offs []int64
		for _, rs := range rows {
			if pos := jsonfile.FindPath(data, int(rs), jsonfile.SplitPath(path)); pos >= 0 {
				offs = append(offs, int64(pos))
			}
		}
		if len(offs) == len(rows) {
			paths, cols = append(paths, path), append(cols, offs)
		}
	}
	x := jsonidx.New()
	rec := x.Record(paths)
	offs := make([]int64, len(paths))
	for r, rs := range rows {
		for i := range cols {
			offs[i] = cols[i][r]
		}
		rec.AppendRow(rs, offs)
	}
	rec.Commit()
	return x
}

// jsonLateCompare holds JSONLateFetch to jsonLateRef over data for rids, for
// several column sets, untracked and tracked.
func jsonLateCompare(t testing.TB, data []byte, rids []int64, batch int) {
	t.Helper()
	for _, tracked := range [][]int{nil, {0, 3}} {
		idx := jsonLateIndex(data, tracked)
		if idx.NRows() == 0 {
			return
		}
		for _, cols := range [][]int{{0, 1, 2, 3}, {3}, {2, 0}} {
			types := make([]vector.Type, len(cols))
			for i, c := range cols {
				types[i] = skelTable.Schema[c].Type
			}
			fetch, err := JSONLateFetch(data, skelTable, cols, idx)
			if err != nil {
				t.Fatal(err)
			}
			rs := rids
			if rs == nil {
				for r := range idx.NRows() {
					rs = append(rs, r)
				}
			}
			got := runLate(fetch, types, rs, batch)
			if want := runLate(jsonLateRef(data, skelTable, cols, idx), types, rs, batch); got != want {
				t.Fatalf("tracked %v cols %v rids %v batch %d over\n%s\nbatch fetch:\n%s\nper-row reference:\n%s", tracked, cols, rs, batch, data, got, want)
			}
		}
	}
}

// jsonMapScanCompare holds the structural-index scan's reader of untracked
// paths, which walks each row through a jsonfile.Skeleton, to FindPath: the
// scan fails exactly when jsonLateRef fails over every row, and otherwise it
// reads jsonLateRef's values and records FindPath's offset of every row.
func jsonMapScanCompare(t testing.TB, data []byte, batch int) {
	t.Helper()
	idx := jsonLateIndex(data, nil)
	if idx.NRows() == 0 {
		return
	}
	cols := []int{0, 1, 2, 3}
	types := make([]vector.Type, len(cols))
	for i, c := range cols {
		types[i] = skelTable.Schema[c].Type
	}
	rids := make([]int64, idx.NRows())
	for r := range rids {
		rids[r] = int64(r)
	}
	want := runLate(jsonLateRef(data, skelTable, cols, idx), types, rids, len(rids))
	s, rec, err := NewJSONMapScanPush(data, skelTable, cols, idx, cols, false, batch, Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := exec.Collect(s)
	if err != nil {
		if !strings.HasPrefix(want, "error: ") {
			t.Fatalf("map scan failed over\n%s\n%v\nper-row reference:\n%s", data, err, want)
		}
		return
	}
	var got strings.Builder
	renderVectors(&got, outs)
	if got.String() != want {
		t.Fatalf("map scan over\n%s\nread:\n%s\nper-row reference:\n%s", data, got.String(), want)
	}
	// A path the caller does not ask to record reads the same and stays
	// untracked.
	part, prec, err := NewJSONMapScanPush(data, skelTable, cols, idx, cols[1:], false, batch, Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	partOuts, err := exec.Collect(part)
	if err != nil {
		t.Fatalf("map scan recording %v failed over\n%s\n%v", cols[1:], data, err)
	}
	var partGot strings.Builder
	if renderVectors(&partGot, partOuts); partGot.String() != want {
		t.Fatalf("map scan recording %v over\n%s\nread:\n%s\nper-row reference:\n%s", cols[1:], data, partGot.String(), want)
	}
	if p := prec.Publish(idx); p.Tracked(skelTable.Schema[cols[0]].Name) || !p.Tracked(skelTable.Schema[cols[1]].Name) {
		t.Fatalf("recording %v published %v", cols[1:], p.TrackedPaths())
	}
	idx = rec.Publish(idx)
	for _, c := range cols {
		path := skelTable.Schema[c].Name
		positions := idx.Positions(path)
		if positions == nil {
			t.Fatalf("path %q not recorded over\n%s", path, data)
		}
		for _, r := range rids {
			if got, want := positions.At(r), jsonfile.FindPath(data, int(idx.RowStart(r)), jsonfile.SplitPath(path)); got != int64(want) {
				t.Fatalf("path %q row %d: recorded %d, FindPath %d over\n%s", path, r, got, want, data)
			}
		}
	}
}

// jsonRangeCompare holds the recordings of structural-index scans over
// consecutive row ranges, cut where cuts say, to one whole-table recording:
// the ranges read the same values, and their recordings, published together,
// are the serial one's offsets, FindPath's on every row. Published without
// the last range they add nothing.
func jsonRangeCompare(t testing.TB, data, cuts []byte, batch int) {
	t.Helper()
	idx := jsonLateIndex(data, []int{0})
	n := idx.NRows()
	if n == 0 {
		return
	}
	cols := []int{0, 1, 2, 3}
	bounds := []int64{0, n}
	for _, c := range cuts {
		bounds = append(bounds, int64(c)%n)
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	serial, whole, err := NewJSONMapScanPush(data, skelTable, cols, idx, cols, false, batch, Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	wantOuts, wantErr := exec.Collect(serial)
	var want strings.Builder
	renderVectors(&want, wantOuts)
	var recs []*jsonidx.Recorder
	got := make([]*vector.Vector, len(cols))
	for i, c := range cols {
		got[i] = vector.New(skelTable.Schema[c].Type, 0)
	}
	for i := 1; i < len(bounds); i++ {
		s, rec, err := NewJSONMapScanPush(data, skelTable, cols, idx, cols, false, batch, Pushdown{})
		if err == nil {
			err = s.SetRowRange(bounds[i-1], bounds[i])
		}
		if err != nil {
			t.Fatal(err)
		}
		outs, err := exec.Collect(s)
		if err != nil {
			if wantErr == nil {
				t.Fatalf("rows [%d,%d) failed (%v) over\n%s\nwhere the whole-table scan read all", bounds[i-1], bounds[i], err, data)
			}
			return
		}
		for j, o := range outs {
			got[j].Int64s, got[j].Float64s = append(got[j].Int64s, o.Int64s...), append(got[j].Float64s, o.Float64s...)
		}
		recs = append(recs, rec)
	}
	if wantErr != nil {
		t.Fatalf("every range read over\n%s\nwhere the whole-table scan failed: %v", data, wantErr)
	}
	var read strings.Builder
	if renderVectors(&read, got); read.String() != want.String() {
		t.Fatalf("ranges %v read\n%s\nthe whole-table scan\n%s", bounds, read.String(), want.String())
	}
	if len(recs) > 1 {
		if short := recs[0].Publish(idx, recs[1:len(recs)-1]...); short != idx {
			t.Fatalf("ranges %v without the last published %v", bounds, short.TrackedPaths())
		}
	}
	ref, ranged := whole.Publish(idx), recs[0].Publish(idx, recs[1:]...)
	if !slices.Equal(ranged.TrackedPaths(), ref.TrackedPaths()) {
		t.Fatalf("ranges %v published %v, the whole-table scan %v", bounds, ranged.TrackedPaths(), ref.TrackedPaths())
	}
	for _, path := range ref.TrackedPaths() {
		offs := ranged.Peek(path).Decode(nil, 0, n)
		if !slices.Equal(offs, ref.Peek(path).Decode(nil, 0, n)) {
			t.Fatalf("ranges %v: path %q offsets differ from the whole-table recording over\n%s", bounds, path, data)
		}
		for r, o := range offs {
			if want := jsonfile.FindPath(data, int(idx.RowStart(int64(r))), jsonfile.SplitPath(path)); o != int64(want) {
				t.Fatalf("ranges %v: path %q row %d: recorded %d, FindPath %d over\n%s", bounds, path, r, o, want, data)
			}
		}
	}
}

// jsonLateOdd are rows that depart from skelRow's layouts: reordered,
// missing and repeated keys, whitespace, escaped keys and values that are no
// numbers.
var jsonLateOdd = []string{
	`{"a":77,"b": 2.5,"x":"s\"}{","n":{"c": 3,"d": 0.25}}`,
	`{"b":2.5,"a":1,"x":"s","n":{"d":0.25,"c":3}}`,
	`{"a":1,"b":2.5,"x":"s","n":{"c":3}}`,
	`{"a":1,"b":2.5,"x":"s"}`,
	`{"a":1,"a":2,"b":2.5,"x":"s","n":{"c":3,"d":0.25}}`,
	`{"a":1,"b":2.5,"x":"s","n":{"c":3,"d":0.25},"n":{}}`,
	`{"a" :1,"b":2.5,"x":"s","n" : {"c":3 ,"d":0.25}}`,
	`{"a":5,"a":1,"b":2.5,"x":"s","n":{"c":3,"d":0.25}}`,
	`{"a\"":5,"a":1,"b":2.5,"x":"s","n":{"c\\":3,"c":4,"d":0.25}}`,
	`{"a":"1","b":true,"x":"s","n":{"c":null,"d":[0.25]}}`,
	`{"a":1e3,"b":+7.5,"x":"s","n":{"c":-,"d":12345678901234567890}}`,
	`{"a":1,"b":2.5,"x":"s","n":[{"c":3,"d":0.25}]}`,
	`	{"a":1,"b":2.5,"x":"s","n":{"c":3,"d":0.25}}`,
	`{"a":1,"b":2.5,"x":"s","n":{"c":3,"d":0.25`,
	`[1,2]`,
}

func TestJSONLateFetchAgainstFindPath(t *testing.T) {
	stable := func(seed int64, rows, layout int) string {
		return string(skelFile(seed, rows, func(int, *rand.Rand) int { return layout }))
	}
	for layout := 0; layout < 64; layout += 3 {
		jsonLateCompare(t, []byte(stable(int64(layout), 30, layout)), nil, 7)
		shifting := skelFile(int64(layout), 30, func(r int, _ *rand.Rand) int {
			return layout + r/10*21 // shifts twice
		})
		jsonLateCompare(t, shifting, []int64{29, 3, 3, 0, 17, 30, 12}, 4)
		jsonMapScanCompare(t, shifting, 8)
		jsonRangeCompare(t, shifting, []byte{7, 10, 23}, 4)
	}
	unstable := skelFile(3, 40, func(r int, _ *rand.Rand) int { return r * 13 })
	jsonLateCompare(t, unstable, nil, 16)
	jsonMapScanCompare(t, unstable, 16)
	jsonRangeCompare(t, unstable, []byte{1, 20, 39}, 16)
	for _, row := range jsonLateOdd {
		for _, at := range []int{0, 1, 9} {
			data := []byte(stable(9, at, 0) + row + "\n" + stable(5, 6, 0))
			jsonLateCompare(t, data, nil, 5)
			jsonMapScanCompare(t, data, 5)
			jsonRangeCompare(t, data, []byte{byte(at), 3}, 2)
		}
		jsonLateCompare(t, []byte(stable(9, 4, 0)+row), nil, 3)
	}
}

func FuzzJSONLateFetch(f *testing.F) {
	f.Add(skelFile(1, 6, func(int, *rand.Rand) int { return 0 }), []byte{0, 4, 1}, uint8(0), uint8(3))
	f.Add(skelFile(2, 6, func(r int, _ *rand.Rand) int { return r / 3 * 21 }), []byte{1, 2, 5, 5, 0}, uint8(2), uint8(2))
	f.Add(skelFile(3, 12, func(r int, _ *rand.Rand) int { return r * 13 }), []byte{11, 0, 7}, uint8(1), uint8(5))
	f.Add([]byte("{\"a\":1,\"b\":2,\"n\":{\"c\":3,\"d\":4}}\n{\"a\":1,\"b\":2e1,\"n\":{\"c\":+3,\"d\":4}}\n{\"a\":n}\n"), []byte{2, 1, 0}, uint8(3), uint8(1))
	f.Add([]byte("{\"a\":1,\"b\":2,\"n\":{\"c\":3,\"d\":4}}\n {\"a\":1,\"b\":2,\"n\":{\"c\":3,\"d\":4}}\n{\"a\":1 ,\"b\":\"x\\\n"), []byte{0, 1, 2}, uint8(0), uint8(2))
	for i, row := range jsonLateOdd {
		f.Add([]byte(string(skelFile(int64(i), 3, func(int, *rand.Rand) int { return i }))+row+"\n"), []byte{0, 1, 2, 3, 4}, uint8(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, data, rb []byte, mode, batch uint8) {
		var rids []int64
		if mode%6 != 5 { // 5: every row in order
			rids = lateRids(rb, mode, jsonLateIndex(data, nil).NRows())
		}
		jsonLateCompare(t, data, rids, int(batch)%16+1)
		jsonMapScanCompare(t, data, int(batch)%16+1)
	})
}

func FuzzJSONRangeRecording(f *testing.F) {
	f.Add(skelFile(1, 6, func(int, *rand.Rand) int { return 0 }), []byte{3}, uint8(2))
	f.Add(skelFile(2, 40, func(r int, _ *rand.Rand) int { return r / 9 * 21 }), []byte{1, 17, 9, 30}, uint8(4))
	f.Add(skelFile(3, 12, func(r int, _ *rand.Rand) int { return r * 13 }), []byte{11, 0, 5, 5}, uint8(0))
	f.Add([]byte("{\"a\":1,\"b\":2,\"n\":{\"c\":3,\"d\":4}}\n\n{\"b\":2e1,\"a\":1,\"n\":{\"d\":4,\"c\":+3}}\n{\"a\":n}\n"), []byte{1, 2}, uint8(1))
	for i, row := range jsonLateOdd {
		f.Add([]byte(string(skelFile(int64(i), 4, func(int, *rand.Rand) int { return i }))+row+"\n"), []byte{uint8(i), 4}, uint8(i))
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte, batch uint8) {
		jsonRangeCompare(t, data, cuts, int(batch)%16+1)
	})
}
