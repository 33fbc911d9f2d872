// Concurrency stress suite: mixed queries from many goroutines against one
// engine while its caches (positional maps, structural indexes, column
// shreds) warm up, with and without morsel-parallel scans. Results must
// match a serially computed baseline on every iteration, and the shred pool
// must end in a coherent state — no lost columns, no shred another of its
// key subsumes. Run with -race (the CI race job does) to surface data races in
// catalog/shred/jsonidx under concurrent load.
package raw_test

import (
	"fmt"
	"sync"
	"testing"

	"rawdb"
	"rawdb/internal/shred"
	"rawdb/internal/workload"
)

// stressQueries is the mixed workload: aggregates, group-bys and a
// projection, across two touched columns plus a group key.
func stressQueries() []string {
	x := workload.Threshold(0.4)
	return []string{
		fmt.Sprintf("SELECT COUNT(*) FROM %%s WHERE col1 < %d", x),
		fmt.Sprintf("SELECT MIN(col2), MAX(col2) FROM %%s WHERE col1 >= %d", x/2),
		fmt.Sprintf("SELECT SUM(col3) FROM %%s WHERE col1 < %d", x),
		"SELECT col4, COUNT(*) FROM %s WHERE col1 >= 0 GROUP BY col4",
		fmt.Sprintf("SELECT col2 FROM %%s WHERE col1 < %d", workload.Threshold(0.01)),
	}
}

func TestConcurrentQueries(t *testing.T) {
	const goroutines = 8
	const iters = 6

	ds, err := workload.Narrow(2000, 45)
	if err != nil {
		t.Fatal(err)
	}
	schema := make([]raw.Column, len(ds.Schema))
	for i, c := range ds.Schema {
		schema[i] = raw.Column{Name: c.Name, Type: c.Type}
	}
	register := func(e *raw.Engine) {
		t.Helper()
		if err := e.RegisterCSVData("tcsv", ds.CSV, schema); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterJSONData("tjson", ds.JSONL, schema); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterBinaryData("tbin", ds.Bin, schema); err != nil {
			t.Fatal(err)
		}
	}
	tables := []string{"tcsv", "tjson", "tbin"}

	// Serial baseline: one engine, one goroutine, fully warmed answers.
	baseline := raw.NewEngine(raw.Config{})
	register(baseline)
	want := make(map[string]*raw.Result)
	var queries []string
	for _, tmpl := range stressQueries() {
		for _, tab := range tables {
			q := fmt.Sprintf(tmpl, tab)
			res, err := baseline.Query(q)
			if err != nil {
				t.Fatalf("baseline %q: %v", q, err)
			}
			want[q] = res
			queries = append(queries, q)
		}
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := raw.NewEngine(raw.Config{Parallelism: workers})
			register(eng)
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for it := 0; it < iters; it++ {
						// Rotate the start so goroutines collide on tables
						// and interleave cold/warm access paths.
						for qi := range queries {
							q := queries[(qi+g*5+it)%len(queries)]
							got, err := eng.Query(q)
							if err != nil {
								errs <- fmt.Errorf("goroutine %d %q: %w", g, q, err)
								return
							}
							w := want[q]
							if got.NumRows() != w.NumRows() || len(got.Columns) != len(w.Columns) {
								errs <- fmt.Errorf("goroutine %d %q: shape %dx%d, want %dx%d",
									g, q, got.NumRows(), len(got.Columns), w.NumRows(), len(w.Columns))
								return
							}
							for r := 0; r < w.NumRows(); r++ {
								for c := range w.Columns {
									if got.Value(r, c) != w.Value(r, c) {
										errs <- fmt.Errorf("goroutine %d %q cell (%d,%d): %v, want %v",
											g, q, r, c, got.Value(r, c), w.Value(r, c))
										return
									}
								}
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			auditBudget(t, "after the storm", eng)

			// Cache-coherence invariants after the storm, as the pool's own
			// contract states them: exactly one shred per column key, and a
			// full one spans exactly the table's rows (a short one would mean
			// a lost morsel).
			pool := eng.Internal().ShredPool()
			for _, tab := range tables {
				seen := make(map[shred.Key]bool)
				for _, s := range pool.ShredsOf(tab) {
					if seen[s.Key()] {
						t.Fatalf("pool holds a second shred of %v (%d rows, full=%v)", s.Key(), s.Len(), s.Full())
					}
					seen[s.Key()] = true
					if s.Full() && s.Len() != ds.Rows {
						t.Fatalf("full shred %v has %d rows, table has %d (lost morsel output)",
							s.Key(), s.Len(), ds.Rows)
					}
				}
			}
		})
	}
}

// TestConcurrentDistinctTables runs parallel queries against disjoint tables
// concurrently — the path where per-table query locks do not serialise and
// engine-level state (catalog, cache budget, shred pool) sees real
// concurrent access.
func TestConcurrentDistinctTables(t *testing.T) {
	const goroutines = 6
	ds, err := workload.Narrow(1500, 46)
	if err != nil {
		t.Fatal(err)
	}
	schema := make([]raw.Column, len(ds.Schema))
	for i, c := range ds.Schema {
		schema[i] = raw.Column{Name: c.Name, Type: c.Type}
	}
	eng := raw.NewEngine(raw.Config{Parallelism: 2})
	for g := 0; g < goroutines; g++ {
		if err := eng.RegisterCSVData(fmt.Sprintf("t%d", g), ds.CSV, schema); err != nil {
			t.Fatal(err)
		}
	}
	base := raw.NewEngine(raw.Config{})
	if err := base.RegisterCSVData("t", ds.CSV, schema); err != nil {
		t.Fatal(err)
	}
	x := workload.Threshold(0.3)
	wantRes, err := base.Query(fmt.Sprintf("SELECT COUNT(*), MAX(col2) FROM t WHERE col1 < %d", x))
	if err != nil {
		t.Fatal(err)
	}
	wantCount, wantMax := wantRes.Int64(0, 0), wantRes.Int64(0, 1)

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := fmt.Sprintf("SELECT COUNT(*), MAX(col2) FROM t%d WHERE col1 < %d", g, x)
			for i := 0; i < 8; i++ {
				res, err := eng.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if res.Int64(0, 0) != wantCount || res.Int64(0, 1) != wantMax {
					errs <- fmt.Errorf("t%d: got (%d,%d), want (%d,%d)",
						g, res.Int64(0, 0), res.Int64(0, 1), wantCount, wantMax)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// One full shred per touched column per table, none lost.
	pool := eng.Internal().ShredPool()
	for g := 0; g < goroutines; g++ {
		for _, col := range []int{0, 1} {
			s := pool.LookupFull(shred.Key{Table: fmt.Sprintf("t%d", g), Col: col})
			if s == nil || s.Len() != ds.Rows {
				t.Fatalf("table t%d col %d: missing or short full shred", g, col)
			}
		}
	}
}
