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
	"rawdb/internal/jsonidx"
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
// not move — and the next capturing query publishes the path.
func TestNoCaptureLeavesIndex(t *testing.T) {
	data, schema := flatJSON(500, 3)
	dir := t.TempDir()
	e := newTestEngine(t, Config{Parallelism: 1, CacheDir: dir})
	defer e.Close()
	if err := e.RegisterJSONData("t", data, schema); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("SELECT SUM(p0) FROM t"); err != nil {
		t.Fatal(err)
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
// any query recorded. Run it under -race.
func TestIndexReadersSeePublishedSnapshots(t *testing.T) {
	const paths = 9
	data, schema := flatJSON(1000, paths)
	e := newTestEngine(t, Config{Parallelism: 1})
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
