package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/obs"
	"rawdb/internal/vector"
)

// kvCSV is a CSV image of rows (k, v) = (i, 3i), the value of row bad (if in
// range) malformed.
func kvCSV(rows, bad int) []byte {
	var b bytes.Buffer
	for i := 0; i < rows; i++ {
		if i == bad {
			fmt.Fprintf(&b, "%d,x%d\n", i, i)
			continue
		}
		fmt.Fprintf(&b, "%d,%d\n", i, 3*i)
	}
	return b.Bytes()
}

func kvSchema() []catalog.Column {
	return []catalog.Column{{Name: "k", Type: vector.Int64}, {Name: "v", Type: vector.Int64}}
}

// poolView renders a table's pooled shreds without touching the pool's
// statistics or recency.
func poolView(e *Engine, tables ...string) string {
	var b strings.Builder
	for _, tab := range tables {
		for _, s := range e.shreds.ShredsOf(tab) {
			fmt.Fprintf(&b, "%v full=%v rows=%d bytes=%d; ", s.Key(), s.Full(), s.Len(), s.SizeBytes())
		}
	}
	return b.String()
}

// TestFailedQueryInstallsNoShred: a join whose probe side fails on a
// malformed value, after the build side's row-keyed capture drained, changes
// neither the shred pool nor the budget and reports nothing, whatever the
// placement of its projected columns.
func TestFailedQueryInstallsNoShred(t *testing.T) {
	for _, place := range []JoinPlacement{PlaceEarly, PlaceIntermediate, PlaceLate} {
		t.Run(place.String(), func(t *testing.T) {
			e := newTestEngine(t, Config{JoinPlacement: place, Parallelism: 1})
			if err := e.RegisterCSVData("a", kvCSV(2000, 1500), kvSchema()); err != nil {
				t.Fatal(err)
			}
			if err := e.RegisterCSVData("b", kvCSV(2000, -1), kvSchema()); err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{"SELECT SUM(k) FROM b", "SELECT SUM(k) FROM a"} {
				if _, err := e.Query(q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			pool, bytes, events := poolView(e, "a", "b"), e.budget.SizeBytes(), len(e.RecentEvents())
			_, err := e.Query("SELECT SUM(a.v), SUM(b.v) FROM a, b WHERE a.k = b.k AND b.k < 1800")
			if err == nil || !strings.Contains(err.Error(), "invalid syntax") {
				t.Fatalf("the join over a malformed value answered %v", err)
			}
			if got := poolView(e, "a", "b"); got != pool {
				t.Errorf("the failed query changed the pool\n got: %s\nwant: %s", got, pool)
			}
			if got := e.budget.SizeBytes(); got != bytes {
				t.Errorf("the failed query moved the budget from %d to %d bytes", bytes, got)
			}
			if evs := e.RecentEvents(); len(evs) != events {
				t.Errorf("the failed query reported %v", evs[events:])
			}
			if err := e.AuditBudget(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCapturedEventsMatchPool: after every query, the shred bytes reported
// captured, less those reported evicted (by the budget, or replaced by a
// capture that outranks them) and invalidated, are the pool's bytes. Cut
// scans re-tee columns the pool holds whole, serial cascades capture
// partial columns that full ones later replace, and a small budget evicts:
// 400 KiB holds the narrow pool's columns, 150 KiB does not.
func TestCapturedEventsMatchPool(t *testing.T) {
	var data bytes.Buffer
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&data, "%d,%d,%d\n", i, i*7%1000, 3*i)
	}
	schema := []catalog.Column{{Name: "a", Type: vector.Int64}, {Name: "b", Type: vector.Int64}, {Name: "c", Type: vector.Int64}}
	queries := []string{
		"SELECT SUM(a), SUM(b) FROM t",
		"SELECT SUM(a), SUM(b), SUM(c) FROM t",
		"SELECT SUM(c) FROM u WHERE a < 5000",
		"SELECT SUM(b) FROM u WHERE a < 9000",
		"SELECT SUM(c) FROM u",
		"SELECT SUM(b), MAX(c) FROM u WHERE a < 12000",
		"SELECT SUM(a), SUM(b), SUM(c) FROM u",
		"SELECT SUM(c) FROM t WHERE b < 10",
	}
	seen := map[string]bool{}
	for _, cfg := range []Config{{Parallelism: 2}, {Parallelism: 1}, {Parallelism: 1, CacheBudget: 400 << 10}, {Parallelism: 1, CacheBudget: 150 << 10}} {
		t.Run(fmt.Sprintf("workers=%d/budget=%d", cfg.Parallelism, cfg.CacheBudget), func(t *testing.T) {
			e := newTestEngine(t, cfg)
			for _, tab := range []string{"t", "u"} {
				if err := e.RegisterCSVData(tab, data.Bytes(), schema); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range queries {
				if _, err := e.Query(q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				var held int64
				for _, ev := range e.RecentEvents() {
					if ev.Structure != "shred" {
						continue
					}
					seen[ev.Kind.String()+" "+ev.Reason] = true
					switch ev.Kind {
					case obs.EventCaptured:
						held += ev.Bytes
					case obs.EventEvicted, obs.EventInvalidated:
						held -= ev.Bytes
					}
				}
				if got := e.shreds.SizeBytes(); got != held {
					t.Fatalf("after %s: events account for %d shred bytes, the pool holds %d (%s)", q, held, got, poolView(e, "t", "u"))
				}
				if err := e.AuditBudget(); err != nil {
					t.Fatalf("after %s: %v", q, err)
				}
			}
		})
	}
	for _, want := range []string{"captured scan", "evicted budget", "evicted replaced"} {
		if !seen[want] {
			t.Errorf("no query raised a %q shred event: the identity went untested there", want)
		}
	}
}

// TestJoinCaptureSortsRowIDs: a late scan above a join captures the column it
// reads keyed by the row ids the join emits, which come in probe order, with
// a row that matches several times repeated. The pool gets them sorted and
// distinct, each with its row's value, and the second run is served from them
// with the same answer.
func TestJoinCaptureSortsRowIDs(t *testing.T) {
	const rows = 2000
	var b bytes.Buffer
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,%d\n", (rows-1-i)%700, 5*i)
	}
	e := newTestEngine(t, Config{Parallelism: 1})
	if err := e.RegisterCSVData("a", kvCSV(rows, -1), kvSchema()); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterCSVData("b", b.Bytes(), kvSchema()); err != nil {
		t.Fatal(err)
	}
	value := map[string]func(col int, rid int64) int64{
		"a": func(col int, rid int64) int64 { return []int64{rid, 3 * rid}[col] },
		"b": func(col int, rid int64) int64 { return []int64{(rows - 1 - rid) % 700, 5 * rid}[col] },
	}
	// The warm-ups leave positional maps and the keys whole: the join then
	// reads v late, above it.
	for _, q := range []string{"SELECT SUM(k) FROM a", "SELECT SUM(k) FROM b"} {
		queryAt(t, e, q, 1)
	}
	var sumA, sumB int64
	for i := int64(0); i < rows; i++ {
		sumA, sumB = sumA+3*value["b"](0, i), sumB+5*i
	}
	for run := 1; run <= 2; run++ {
		res := queryAt(t, e, "SELECT SUM(a.v), SUM(b.v) FROM a, b WHERE a.k = b.k AND a.k < 1800", 1)
		if res.Int64(0, 0) != sumA || res.Int64(0, 1) != sumB {
			t.Fatalf("run %d: sums %d, %d, want %d, %d", run, res.Int64(0, 0), res.Int64(0, 1), sumA, sumB)
		}
		keyed := 0
		for tab, val := range value {
			for _, s := range e.shreds.ShredsOf(tab) {
				rids := s.RowIDs()
				for j, v := range s.Values().Int64s {
					rid := int64(j)
					if !s.Full() {
						if rid = rids[j]; j > 0 && rid <= rids[j-1] {
							t.Fatalf("run %d: %v row ids %d then %d", run, s.Key(), rids[j-1], rid)
						}
					}
					if want := val(s.Key().Col, rid); v != want {
						t.Fatalf("run %d: %v holds %d for row %d, want %d", run, s.Key(), v, rid, want)
					}
				}
				if !s.Full() {
					keyed++
				}
			}
		}
		if keyed == 0 {
			t.Fatalf("run %d: no row-keyed capture above the join (%s)", run, poolView(e, "a", "b"))
		}
		if err := e.AuditBudget(); err != nil {
			t.Fatal(err)
		}
	}
}
