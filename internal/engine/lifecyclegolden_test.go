package engine

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rawdb/internal/obs"
)

// TestStructureLifecycleGolden pins the life of every cached structure — a
// positional structure, a synopsis, shreds, a dataset manifest — from capture
// through vault save, restart, budget eviction, a file rewrite and DropTable,
// for each raw input kind. After every step it records what the engine
// reports and what it holds: the lifecycle events, the budget keys, the vault
// directory, the per-structure gauges and the vault publish counters.
// Regenerate with `go test ./internal/engine -run TestStructureLifecycleGolden
// -update-golden` and review the diff: every changed line is a lifecycle
// behaviour change.
func TestStructureLifecycleGolden(t *testing.T) {
	const rows = 3000
	big := goldenTable(t, rows, 0)
	half := goldenTable(t, rows/2, 0)
	third := []*goldenData{goldenTable(t, rows/3, 0), goldenTable(t, rows/3, rows/3), goldenTable(t, rows/3, 2*rows/3)}
	schema := big.schema
	golden, err := filepath.Abs(filepath.Join("testdata", "lifecycle.golden"))
	if err != nil {
		t.Fatal(err)
	}
	// Relative paths keep the manifest entry (it records the pattern and every
	// partition path) the same size wherever the test runs.
	t.Chdir(t.TempDir())

	inputs := []struct {
		name     string
		files    map[string][]byte
		register func(e *Engine) error
		rewrite  string // the file rewritten before the refresh query
		data     []byte
	}{
		{"csv", map[string][]byte{"t.csv": big.csv},
			func(e *Engine) error { return e.RegisterCSV("t", "csv/t.csv", schema) }, "t.csv", half.csv},
		{"json", map[string][]byte{"t.json": big.json},
			func(e *Engine) error { return e.RegisterJSON("t", "json/t.json", schema) }, "t.json", half.json},
		{"binary", map[string][]byte{"t.bin": big.bin},
			func(e *Engine) error { return e.RegisterBinary("t", "binary/t.bin", schema) }, "t.bin", half.bin},
		{"dataset", map[string][]byte{"ds/a.csv": third[0].csv, "ds/b.json": third[1].json, "ds/c.bin": third[2].bin},
			func(e *Engine) error { return e.RegisterDataset("t", "dataset/ds", schema) }, "ds/a.csv", half.csv},
	}
	const cold = "SELECT MAX(col2) FROM t WHERE col1 < 600"
	const other = "SELECT MAX(col4), COUNT(*) FROM t WHERE col1 < 600 AND col3 > 500"
	const pressure = "SELECT MIN(col5), MAX(col3), SUM(col2) FROM t"

	var out strings.Builder
	for _, in := range inputs {
		for name, data := range in.files {
			path := filepath.Join(in.name, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var events []obs.Event
		vaultDir := filepath.Join(in.name, "vault")
		cfg := Config{CacheDir: vaultDir, CacheBudget: 96 << 10, SynopsisBlockRows: 256,
			OnEvent: func(ev obs.Event) { events = append(events, ev) }}
		var e *Engine
		start := func() {
			e = newTestEngine(t, cfg)
			if err := in.register(e); err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
		}
		query := func(sql string) {
			fmt.Fprintf(&out, "%s\n", sql)
			res, err := e.Query(sql)
			if err != nil {
				fmt.Fprintf(&out, "query error: %v\n", err)
				return
			}
			fmt.Fprintf(&out, "result:")
			for c := range res.Columns {
				fmt.Fprintf(&out, " %v", res.Value(0, c))
			}
			fmt.Fprintf(&out, "\n")
		}
		steps := []struct {
			label string
			run   func()
		}{
			{"cold", func() { start(); query(cold) }},
			{"warm-other-columns", func() { query(other) }},
			{"flush", func() { e.FlushVault() }},
			{"restart", start},
			{"budget-pressure", func() { query(pressure) }},
			{"rewrite-refresh", func() {
				if err := os.WriteFile(filepath.Join(in.name, in.rewrite), in.data, 0o644); err != nil {
					t.Fatal(err)
				}
				query(cold)
			}},
			{"drop", func() {
				if err := e.DropTable("t"); err != nil {
					t.Fatal(err)
				}
			}},
		}
		for _, step := range steps {
			fmt.Fprintf(&out, "=== %s %s\n", in.name, step.label)
			events = events[:0]
			step.run()
			// Write-backs run on their own goroutine; a step ends when they land.
			e.vaultIO.wait()
			lifecycleState(t, &out, e, events, vaultDir)
		}
	}
	checkGolden(t, golden, out.String())
}

// lifecycleState renders what one lifecycle step left behind.
func lifecycleState(t *testing.T, out *strings.Builder, e *Engine, events []obs.Event, vaultDir string) {
	t.Helper()
	// Sorted: which events a step raises is pinned, their order is not.
	lines := make([]string, len(events))
	for i, ev := range events {
		lines[i] = fmt.Sprintf("event: %s %s %s#%s bytes=%d %s\n",
			ev.Kind, ev.Structure, ev.Table, ev.Partition, ev.Bytes, ev.Reason)
	}
	sort.Strings(lines)
	out.WriteString(strings.Join(lines, ""))
	keys := e.Budget().Keys()
	sort.Strings(keys)
	fmt.Fprintf(out, "budget: %s\n", strings.Join(keys, " "))
	err := filepath.WalkDir(vaultDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(vaultDir, path)
		fmt.Fprintf(out, "vault: %s %d\n", filepath.ToSlash(rel), info.Size())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Metrics().Snapshot()
	fmt.Fprintf(out, "gauges:")
	for _, g := range []string{"posmap.bytes", "jsonidx.bytes", "jsonidx.seeks",
		"synopsis.bytes", "synopsis.checks", "synopsis.exclusions"} {
		fmt.Fprintf(out, " %s=%d", g, snap[g])
	}
	fmt.Fprintf(out, "\npublish: entries=%d bytes=%d\n", snap["vault.publish.entries"], snap["vault.publish.bytes"])
}
