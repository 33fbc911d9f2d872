package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"testing"
	"time"

	"rawdb/internal/catalog"
	"rawdb/internal/obs"
	"rawdb/internal/vector"
)

// TestParallelGroupByBypass: grouped cut plans whose partials do not reduce
// — two of every three rows open a group, so every morsel's partial passes
// its rows on after the first 4096 — return the serial plan's rows in its
// order at 1, 2 and 4 workers: keys at and above the dense limit (2^21),
// negative keys and two-column keys; COUNT, MIN, MAX, integer and float SUM,
// AVG and HAVING. The cache budget stays exact, and the exchange's
// goroutines are gone once the queries have returned.
func TestParallelGroupByBypass(t *testing.T) {
	const rows = 40_000
	rng := rand.New(rand.NewSource(11))
	var b bytes.Buffer
	for r := range rows {
		k := int64(r - r%3/2) // rows 3j+1 and 3j+2 share a key
		f := math.Ldexp(rng.NormFloat64(), rng.Intn(40)-20)
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%s\n", 1<<21+k, -1-k, k/2, k%2, rng.Int63n(1<<40)-1<<39,
			strconv.FormatFloat(f, 'g', -1, 64))
	}
	schema := []catalog.Column{{Name: "big", Type: vector.Int64}, {Name: "neg", Type: vector.Int64},
		{Name: "a", Type: vector.Int64}, {Name: "b", Type: vector.Int64},
		{Name: "i", Type: vector.Int64}, {Name: "f", Type: vector.Float64}}
	e := newTestEngine(t, Config{})
	if err := e.RegisterCSVData("t", b.Bytes(), schema); err != nil {
		t.Fatal(err)
	}
	// Without a WHERE, morsels of n rows hold about 2n/3 groups: a
	// partial that passes its rows on after the first 4096 emits more.
	queries := []struct {
		sql    string
		filter bool
	}{
		{"SELECT big, COUNT(*), MIN(i), MAX(i), SUM(i), MIN(f), MAX(f), SUM(f), AVG(f), AVG(i) FROM t GROUP BY big", false},
		{"SELECT neg, SUM(f), COUNT(*), MAX(f) FROM t WHERE i > -400000000000 GROUP BY neg", true},
		{"SELECT a, b, SUM(i), AVG(f), MIN(f) FROM t GROUP BY a, b", false},
		{"SELECT big, SUM(f), MAX(i) FROM t GROUP BY big HAVING COUNT(*) > 1", false},
	}
	morselRows := regexp.MustCompile(`morsel\[\d+\] .* rows=(\d+)`)
	base := runtime.NumGoroutine()
	for _, q := range queries {
		want := queryAt(t, e, q.sql, 1)
		for _, w := range []int{1, 2, 4} {
			tr := obs.NewTrace()
			got, err := e.QueryOpt(q.sql, Options{Parallelism: &w, Trace: tr})
			if err != nil {
				t.Fatalf("workers %d: %q: %v", w, q.sql, err)
			}
			sameResult(t, fmt.Sprintf("%q workers %d", q.sql, w), got, want)
			ms := morselRows.FindAllStringSubmatch(tr.Render(), -1)
			if w > 1 && len(ms) != 2*w {
				t.Fatalf("%q workers %d: %d morsels, want %d:\n%s", q.sql, w, len(ms), 2*w, tr.Render())
			}
			for _, m := range ms {
				if n, _ := strconv.Atoi(m[1]); !q.filter && 10*n < 7*rows/len(ms) {
					t.Fatalf("%q workers %d: a partial emits %d rows, so it did not pass its rows on:\n%s", q.sql, w, n, tr.Render())
				}
			}
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the queries, %d before", runtime.NumGoroutine(), base)
		}
	}
	if err := e.AuditBudget(); err != nil {
		t.Fatal(err)
	}
}
