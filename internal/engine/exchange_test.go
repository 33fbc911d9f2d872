package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"rawdb/internal/bytesconv"
	"rawdb/internal/catalog"
	"rawdb/internal/faults"
	"rawdb/internal/vector"
)

// keyedCSV renders rows rows of k = r % keys and c = r, with the c of every
// row in bad malformed.
func keyedCSV(rows, keys int, bad ...int) []byte {
	var b bytes.Buffer
	for r := range rows {
		c := fmt.Sprint(r)
		for _, x := range bad {
			if r == x {
				c += "x"
			}
		}
		fmt.Fprintf(&b, "%d,%s\n", r%keys, c)
	}
	return b.Bytes()
}

var keyedSchema = []catalog.Column{{Name: "k", Type: vector.Int64}, {Name: "c", Type: vector.Int64}}

// TestParallelErrorIsLowestPart: a cut scan over malformed integers late in
// its first morsel and early in its last reports the first, as the serial
// plan does, however the workers interleave.
func TestParallelErrorIsLowestPart(t *testing.T) {
	const rows = 8000
	data := keyedCSV(rows, rows, rows/8-2, rows-rows/8+100) // late in the first of 8 morsels, early in the last
	const q = "SELECT SUM(c) FROM t"
	query := func(workers int) error {
		e := newTestEngine(t, Config{Parallelism: workers})
		if err := e.RegisterCSVData("t", data, keyedSchema); err != nil {
			t.Fatal(err)
		}
		if workers > 1 {
			if ex, err := e.Explain(q, Options{}); err != nil || !strings.Contains(ex, "par[") {
				t.Fatalf("explain: %v\n%s: want a cut plan", err, ex)
			}
		}
		_, err := e.Query(q)
		return err
	}
	want := query(1)
	if !errors.Is(want, bytesconv.ErrSyntax) {
		t.Fatalf("serial: %v, want a bytesconv.ErrSyntax failure", want)
	}
	for run := range 20 {
		if got := query(4); !errors.Is(got, bytesconv.ErrSyntax) || got.Error() != want.Error() {
			t.Fatalf("run %d at 4 workers: %v, want %v", run, got, want)
		}
	}
}

// TestParallelFailedStreamLeavesNothing: a cut join and a cut group-by that
// fail mid-stream — on a malformed value, or cancelled by a hook as a later
// morsel starts — return once every exchange worker has, and leave the cache
// budget charging exactly what the engine holds.
func TestParallelFailedStreamLeavesNothing(t *testing.T) {
	const rows = 4000
	for _, q := range []struct{ name, sql, cut string }{
		{"join", "SELECT SUM(a.c), COUNT(*) FROM a, b WHERE a.k = b.k", "par:hashjoin(a,b)"},
		{"groupby", "SELECT k, SUM(c) FROM a GROUP BY k", "par[8]"},
	} {
		for _, fail := range []string{"malformed", "cancelled"} {
			t.Run(q.name+"/"+fail, func(t *testing.T) {
				e := newTestEngine(t, Config{Parallelism: 4})
				bad := []int(nil)
				if fail == "malformed" {
					bad = []int{rows / 2}
				}
				if err := e.RegisterCSVData("a", keyedCSV(rows, 500, bad...), keyedSchema); err != nil {
					t.Fatal(err)
				}
				if err := e.RegisterCSVData("b", keyedCSV(1000, 1000), keyedSchema); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Query("SELECT COUNT(*) FROM b"); err != nil {
					t.Fatal(err)
				}
				if ex, err := e.Explain(q.sql, Options{}); err != nil || !strings.Contains(ex, q.cut) {
					t.Fatalf("explain: %v\n%s: want a cut plan", err, ex)
				}
				base := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				want := bytesconv.ErrSyntax
				if fail == "cancelled" {
					want = context.Canceled
					faults.Install(faults.NewSchedule(1, faults.Rule{
						Site: faults.SiteExecMorsel, Kind: faults.Hook, After: 5, Times: 1, Fn: cancel}))
				}
				_, err := e.QueryCtx(ctx, q.sql)
				faults.Disable()
				if !errors.Is(err, want) {
					t.Fatalf("%q: %v, want %v", q.sql, err, want)
				}
				for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after the failed query, %d before", runtime.NumGoroutine(), base)
					}
				}
				if err := e.AuditBudget(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
