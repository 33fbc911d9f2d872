package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/jit"
	"rawdb/internal/jsonidx"
	"rawdb/internal/shred"
	"rawdb/internal/vector"
)

// flatJSON is a JSONL image of rows objects with int members p0..p<paths-1>,
// and its schema.
func flatJSON(rows, paths int) ([]byte, []catalog.Column) {
	var buf bytes.Buffer
	for r := 0; r < rows; r++ {
		buf.WriteByte('{')
		for p := 0; p < paths; p++ {
			if p > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, "\"p%d\":%d", p, r*paths+p)
		}
		buf.WriteString("}\n")
	}
	schema := make([]catalog.Column, paths)
	for p := range schema {
		schema[p] = catalog.Column{Name: fmt.Sprintf("p%d", p), Type: vector.Int64}
	}
	return buf.Bytes(), schema
}

// jsonIndex returns the structural index table t's slot holds.
func jsonIndex(e *Engine) *jsonidx.Index { return e.tables["t"].positions().jidx }

// TestNoCaptureLeavesIndex: a NoCapture query over a path the structural
// index does not track reads it from the row starts and builds nothing — the
// slot keeps the same index, the jsonidx.bytes gauge and the vault entry do
// not move — and the next capturing query publishes the path. Shreds are off,
// so the first scan tees nothing and records the path it reads.
func TestNoCaptureLeavesIndex(t *testing.T) {
	data, schema := flatJSON(500, 3)
	dir := t.TempDir()
	e := newTestEngine(t, Config{Parallelism: 1, CacheDir: dir, DisableShredCache: true})
	defer e.Close()
	if err := e.RegisterJSONData("t", data, schema); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("SELECT SUM(p0) FROM t"); err != nil {
		t.Fatal(err)
	}
	if got := jsonIndex(e).TrackedPaths(); !slices.Equal(got, []string{"p0"}) {
		t.Fatalf("the first scan tracks %v, want [p0]", got)
	}
	e.FlushVault()
	entry := func() []byte {
		t.Helper()
		var found []byte
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(path, "jsonidx.rawv") {
				found, err = os.ReadFile(path)
			}
			return err
		})
		if err != nil || found == nil {
			t.Fatalf("no jsonidx vault entry under %s (%v)", dir, err)
		}
		return found
	}
	idx, gauge, saved := jsonIndex(e), e.Metrics().Snapshot()["jsonidx.bytes"], entry()
	noCapture := true
	res, err := e.QueryOpt("SELECT SUM(p1) FROM t", Options{NoCapture: &noCapture})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value(0, 0); got != int64(3*500*499/2+500) {
		t.Fatalf("SUM(p1) = %v", got)
	}
	e.FlushVault()
	if got := jsonIndex(e); got != idx || got.Tracked("p1") {
		t.Fatalf("the no-capture query changed the index (same pointer %v, tracks %v)", got == idx, got.TrackedPaths())
	}
	if got := e.Metrics().Snapshot()["jsonidx.bytes"]; got != gauge {
		t.Fatalf("jsonidx.bytes moved from %d to %d", gauge, got)
	}
	if !slices.Equal(entry(), saved) {
		t.Fatal("the no-capture query rewrote the vault entry")
	}
	if err := e.AuditBudget(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("SELECT SUM(p1) FROM t"); err != nil {
		t.Fatal(err)
	}
	if got := jsonIndex(e); got == idx || !got.Tracked("p1") || idx.Tracked("p1") {
		t.Fatalf("a capturing query did not publish p1 into a new index: tracks %v", got.TrackedPaths())
	}
}

// panicAtEnd panics when its scan is asked for a batch after its last one.
type panicAtEnd struct{ exec.Operator }

func (p panicAtEnd) Next() (*vector.Batch, error) {
	b, err := p.Operator.Next()
	if b == nil && err == nil {
		panic("after the last row")
	}
	return b, err
}

// panicSource builds its format's scans wrapped in panicAtEnd.
type panicSource struct{ source }

func (s panicSource) scan(tab *catalog.Table, pos positions, req scanReq) (exec.Operator, fragment, error) {
	op, frag, err := s.source.scan(tab, pos, req)
	if err != nil {
		return nil, nil, err
	}
	return panicAtEnd{op}, frag, nil
}

// TestPanicAfterRecordingLeavesIndex: a serial query whose structural-index
// scan records a new path and reads the table's last row, then panics, fails
// with the index it planned against still installed and untouched, and the
// cache budget charging what the engine holds.
func TestPanicAfterRecordingLeavesIndex(t *testing.T) {
	data, schema := flatJSON(300, 3)
	e := newTestEngine(t, Config{Parallelism: 1})
	if err := e.RegisterJSONData("t", data, schema); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("SELECT SUM(p0) FROM t"); err != nil {
		t.Fatal(err)
	}
	idx, footprint := jsonIndex(e), jsonIndex(e).MemoryFootprint()
	st := e.tables["t"]
	src := st.src
	st.src = panicSource{src}
	_, err := e.Query("SELECT SUM(p1) FROM t")
	st.src = src
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("got %v, want the query's panic", err)
	}
	if got := jsonIndex(e); got != idx || idx.Tracked("p1") || idx.MemoryFootprint() != footprint {
		t.Fatalf("the panicking query changed the index (same pointer %v, tracks %v)", got == idx, idx.TrackedPaths())
	}
	if err := e.AuditBudget(); err != nil {
		t.Fatal(err)
	}
}

// indexView is what a reader read through one index snapshot: its tracked
// paths, and the row starts and offsets of each.
type indexView struct {
	tracked []string
	offsets [][]int64 // row starts, then each tracked path's offsets
}

func viewIndex(x *jsonidx.Index) indexView {
	n := x.NRows()
	v := indexView{tracked: x.TrackedPaths(), offsets: [][]int64{x.RowStarts().Decode(nil, 0, n)}}
	for _, p := range v.tracked {
		if !x.Tracked(p) {
			return indexView{} // reported as tracked, then not: never equal to a first view
		}
		v.offsets = append(v.offsets, x.Positions(p).Decode(nil, 0, n))
	}
	return v
}

// TestIndexReadersSeePublishedSnapshots: readers holding a snapshot of a
// table's structural index see it unchanged, byte for byte, while queries
// over the same table — two at a time, so their executions overlap — record
// new paths and publish them, and the index published last tracks every path
// any query recorded, the first scan's too (shreds are off, so it tees
// nothing). Run it under -race.
func TestIndexReadersSeePublishedSnapshots(t *testing.T) {
	const paths = 9
	data, schema := flatJSON(1000, paths)
	e := newTestEngine(t, Config{Parallelism: 1, DisableShredCache: true})
	if err := e.RegisterJSONData("t", data, schema); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("SELECT SUM(p0) FROM t"); err != nil {
		t.Fatal(err)
	}
	const nreaders, nqueriers = 3, 2
	var stop atomic.Bool
	var readers sync.WaitGroup
	errs := make(chan error, nreaders+nqueriers) // each goroutine sends at most once
	for range nreaders {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				x := jsonIndex(e)
				first := viewIndex(x)
				for range 5 {
					if got := viewIndex(x); !reflect.DeepEqual(got, first) {
						errs <- fmt.Errorf("an index snapshot changed: tracked %v, then %v", first.tracked, got.tracked)
						return
					}
				}
			}
		}()
	}
	var queries sync.WaitGroup
	for w := range nqueriers {
		queries.Add(1)
		go func() {
			defer queries.Done()
			for p := 1 + w; p < paths; p += nqueriers {
				if _, err := e.Query(fmt.Sprintf("SELECT SUM(p%d) FROM t", p)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	queries.Wait()
	stop.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := make([]string, paths)
	for p := range want {
		want[p] = fmt.Sprintf("p%d", p)
	}
	if got := jsonIndex(e).TrackedPaths(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the final index tracks %v, want %v", got, want)
	}
	if err := e.AuditBudget(); err != nil {
		t.Fatal(err)
	}
}

// sumColumn is SUM(p<p>) over flatJSON(rows, paths).
func sumColumn(rows, paths, p int) int64 {
	return int64(paths*rows*(rows-1)/2 + p*rows)
}

// querySum runs SUM(p<p>) at workers and checks its answer over
// flatJSON(rows, paths); it returns the query's access paths.
func querySum(t *testing.T, e *Engine, rows, paths, p, workers int) []string {
	t.Helper()
	res := queryAt(t, e, fmt.Sprintf("SELECT SUM(p%d) FROM t", p), workers)
	if got := res.Value(0, 0); got != sumColumn(rows, paths, p) {
		t.Fatalf("workers %d: SUM(p%d) = %v, want %d", workers, p, got, sumColumn(rows, paths, p))
	}
	if err := e.AuditBudget(); err != nil {
		t.Fatal(err)
	}
	return res.Stats.AccessPaths
}

// TestFirstJSONScanSkipsTeedPaths: a capturing first scan, serial or cut into
// morsels, records the row starts and no path it captures whole as a shred;
// with shreds off it records every path it reads. The source's own first
// pass says the same whether the planner asks it to tee or not.
func TestFirstJSONScanSkipsTeedPaths(t *testing.T) {
	const rows, paths = 2000, 3
	data, schema := flatJSON(rows, paths)
	for _, workers := range []int{1, 4} {
		for _, noShreds := range []bool{false, true} {
			e := newTestEngine(t, Config{Parallelism: workers, DisableShredCache: noShreds})
			if err := e.RegisterJSONData("t", data, schema); err != nil {
				t.Fatal(err)
			}
			res := queryAt(t, e, "SELECT SUM(p0), MAX(p1) FROM t", workers)
			if got := res.Value(0, 0); got != sumColumn(rows, paths, 0) {
				t.Fatalf("SUM(p0) = %v", got)
			}
			if err := e.AuditBudget(); err != nil {
				t.Fatal(err)
			}
			idx := jsonIndex(e)
			want := []string{"p0", "p1"}
			if !noShreds {
				want = []string{}
				for c := range 2 {
					if e.shreds.LookupFull(shred.Key{Table: "t", Col: c}) == nil {
						t.Fatalf("workers %d: p%d was not captured as a full shred", workers, c)
					}
				}
			}
			if idx.NRows() != rows || !slices.Equal(idx.TrackedPaths(), want) {
				t.Fatalf("workers %d, shreds off %v: index of %d rows tracks %v, want %d rows tracking %v",
					workers, noShreds, idx.NRows(), idx.TrackedPaths(), rows, want)
			}
			e.Close()
		}
	}

	e := newTestEngine(t, Config{})
	defer e.Close()
	if err := e.RegisterJSONData("t", data, schema); err != nil {
		t.Fatal(err)
	}
	st := e.tables["t"]
	for _, tee := range []bool{true, false} {
		req := scanReq{mode: jit.Sequential, span: wholeTable, cols: []int{0, 1}, track: true, tee: tee}
		op, frag, err := st.src.scan(st.tab, positions{}, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Collect(op); err != nil {
			t.Fatal(err)
		}
		want := []string{"p0", "p1"}
		if tee {
			want = []string{}
		}
		if idx := frag.(*jsonidx.Index); idx.NRows() != rows || !slices.Equal(idx.TrackedPaths(), want) {
			t.Fatalf("tee %v: the first pass recorded %d rows and paths %v, want %d rows and %v",
				tee, idx.NRows(), idx.TrackedPaths(), rows, want)
		}
	}
}

// TestParallelMapScanPublishesRecording: a query cut into row ranges over a
// path the structural index does not track records it range by range, and
// the query publishes the linked recording — the offsets a serial recording
// has. A cut scan that rereads a column the pool holds whole records only
// the others. With shreds off, the next query reads the path through those
// offsets and publishes nothing.
func TestParallelMapScanPublishesRecording(t *testing.T) {
	const rows, paths = 3000, 3
	data, schema := flatJSON(rows, paths)
	serial := newTestEngine(t, Config{Parallelism: 1, DisableShredCache: true})
	defer serial.Close()
	if err := serial.RegisterJSONData("t", data, schema); err != nil {
		t.Fatal(err)
	}
	querySum(t, serial, rows, paths, 0, 1)
	querySum(t, serial, rows, paths, 2, 1)
	want := jsonIndex(serial).Peek("p2").Decode(nil, 0, rows)

	for _, noShreds := range []bool{false, true} {
		e := newTestEngine(t, Config{Parallelism: 4, DisableShredCache: noShreds})
		if err := e.RegisterJSONData("t", data, schema); err != nil {
			t.Fatal(err)
		}
		querySum(t, e, rows, paths, 0, 4)
		before := jsonIndex(e)
		if before.Tracked("p2") {
			t.Fatal("p2 tracked before any query read it")
		}
		if got := querySum(t, e, rows, paths, 2, 4); !strings.HasPrefix(got[0], "par[") {
			t.Fatalf("the recording query ran %v, want a parallel plan", got)
		}
		idx := jsonIndex(e)
		if idx == before || !idx.Tracked("p2") {
			t.Fatalf("shreds off %v: the parallel recording was not published: tracks %v", noShreds, idx.TrackedPaths())
		}
		if got := idx.Peek("p2").Decode(nil, 0, rows); !slices.Equal(got, want) {
			t.Fatalf("shreds off %v: published offsets differ from a serial recording", noShreds)
		}
		if !noShreds {
			// p0 is pooled whole: a cut scan that rereads it with p1, which
			// no shred holds, records p1 only.
			res := queryAt(t, e, "SELECT SUM(p0), SUM(p1) FROM t", 4)
			if got := res.Value(0, 1); got != sumColumn(rows, paths, 1) {
				t.Fatalf("SUM(p1) = %v", got)
			}
			if got := jsonIndex(e).TrackedPaths(); !slices.Equal(got, []string{"p1", "p2"}) {
				t.Fatalf("after rereading pooled p0 with p1 the index tracks %v, want [p1 p2]", got)
			}
			if err := e.AuditBudget(); err != nil {
				t.Fatal(err)
			}
		} else {
			seeks := idx.Seeks()
			querySum(t, e, rows, paths, 2, 4)
			if jsonIndex(e) != idx || idx.Seeks() == seeks {
				t.Fatalf("the next query did not read p2 through its offsets (index replaced %v, seeks %d -> %d)",
					jsonIndex(e) != idx, seeks, idx.Seeks())
			}
		}
		e.Close()
	}
}

// TestTeedPathRecordedAfterShredDrop: a path the first scan captured as a
// shred and did not record is recorded by the first raw read after its shred
// is dropped, and the raw read after that goes through its offsets.
func TestTeedPathRecordedAfterShredDrop(t *testing.T) {
	const rows, paths = 2000, 3
	data, schema := flatJSON(rows, paths)
	for _, workers := range []int{1, 4} {
		e := newTestEngine(t, Config{Parallelism: workers})
		if err := e.RegisterJSONData("t", data, schema); err != nil {
			t.Fatal(err)
		}
		querySum(t, e, rows, paths, 1, workers)
		if jsonIndex(e).Tracked("p1") {
			t.Fatalf("workers %d: the capturing first scan recorded p1", workers)
		}
		if got := querySum(t, e, rows, paths, 1, workers); !strings.HasSuffix(got[0], "shred:scan(t)") {
			t.Fatalf("workers %d: the warm query ran %v, want the shred", workers, got)
		}
		e.shreds.DropTable("t")
		if got := querySum(t, e, rows, paths, 1, workers); !strings.HasSuffix(got[0], "jit:jsonidx(t)") {
			t.Fatalf("workers %d: the query after the drop ran %v, want the structural index", workers, got)
		}
		idx := jsonIndex(e)
		if !idx.Tracked("p1") {
			t.Fatalf("workers %d: the raw read after the drop did not record p1", workers)
		}
		e.shreds.DropTable("t")
		seeks := idx.Seeks()
		querySum(t, e, rows, paths, 1, workers)
		if jsonIndex(e) != idx || idx.Seeks() == seeks {
			t.Fatalf("workers %d: the second raw read did not go through p1's offsets", workers)
		}
		e.Close()
	}
}
