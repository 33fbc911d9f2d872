package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/obs"
	"rawdb/internal/offsets"
	"rawdb/internal/shred"
	"rawdb/internal/vault"
	"rawdb/internal/vector"
)

// vaultTable writes a 100-row, two-column table as CSV and JSONL under a
// temporary directory and returns the paths and its schema.
func vaultTable(t *testing.T) (csvPath, jsonPath string, schema []catalog.Column) {
	t.Helper()
	var csv, jsonl strings.Builder
	for r := range 100 {
		fmt.Fprintf(&csv, "%d,%d\n", r, 2*r)
		fmt.Fprintf(&jsonl, `{"col1":%d,"col2":%d}`+"\n", r, 2*r)
	}
	dir := t.TempDir()
	csvPath, jsonPath = filepath.Join(dir, "t.csv"), filepath.Join(dir, "t.jsonl")
	if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, []byte(jsonl.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return csvPath, jsonPath, []catalog.Column{{Name: "col1", Type: vector.Int64}, {Name: "col2", Type: vector.Int64}}
}

// chunked returns vals as a sealed offsets column.
func chunked(vals []int64) *offsets.Column {
	c := offsets.New(nil)
	c.AppendAll(vals)
	c.Clip()
	return c
}

// TestVaultShredRowCount: a restored shred must hold the rows of the table
// it is restored for. One saved under the table's own fingerprint whose row
// count disagrees with the positional map's (a full shred of 50 or 150 rows
// for 100), or that holds a row past it (a partial one), is ignored, and
// the table's answers stay its own.
func TestVaultShredRowCount(t *testing.T) {
	csvPath, _, schema := vaultTable(t)
	dir := t.TempDir()
	const q = "SELECT SUM(col1), COUNT(*) FROM t"
	const filtered = "SELECT SUM(col1), COUNT(*) FROM t WHERE col2 >= 20"
	mk := func() *Engine {
		e := newTestEngine(t, Config{CacheDir: dir})
		if err := e.RegisterCSV("t", csvPath, schema); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := mk()
	queryAt(t, e, q, 1)
	e.Close()
	seq := func(n int64) []int64 {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i)
		}
		return vals
	}
	for name, bad := range map[string]vault.TableShred{
		"full of 50 rows":         {Col: 0, Ints: chunked(seq(50))},
		"full of 150 rows":        {Col: 0, Ints: chunked(seq(150))},
		"partial with row id 120": {Col: 0, Rows: chunked([]int64{3, 120}), Ints: chunked([]int64{3, 120})},
	} {
		e := mk()
		st := e.tables["t"]
		if err := e.vault.WriteEntry("t", vault.KindShreds, vault.EncodeShreds(st.fp, []vault.TableShred{bad})); err != nil {
			t.Fatal(err)
		}
		e.Close()
		e = mk()
		if s := e.shreds.Lookup(shred.Key{Table: "t", Col: 0}); s != nil {
			t.Errorf("%s: restored a shred of %d rows for a table of 100", name, s.Len())
		}
		for _, src := range []string{q, filtered} {
			res := queryAt(t, e, src, 1)
			want := [2]int64{4950, 100}
			if src == filtered {
				want = [2]int64{4905, 90}
			}
			if got := [2]int64{res.Int64(0, 0), res.Int64(0, 1)}; got != want {
				t.Errorf("%s: %s = %v, want %v (%v)", name, src, got, want, res.Stats.AccessPaths)
			}
		}
		e.Close()
	}
}

// TestVaultRebuildsOldLayoutsCold: a positional map, structural index or
// shreds entry of the layout before the vault wrote chunks (version 1) is
// not restored, and the table's first query after the restart scans it cold.
func TestVaultRebuildsOldLayoutsCold(t *testing.T) {
	csvPath, jsonPath, schema := vaultTable(t)
	for _, c := range []struct {
		kind     vault.Kind
		register func(*Engine) error
		cold     string
	}{
		{vault.KindPosMap, func(e *Engine) error { return e.RegisterCSV("t", csvPath, schema) }, "jit:seq"},
		{vault.KindJSONIdx, func(e *Engine) error { return e.RegisterJSON("t", jsonPath, schema) }, "jit:jsonseq"},
	} {
		t.Run(c.kind.String(), func(t *testing.T) {
			var restored []string
			dir := t.TempDir()
			mk := func() *Engine {
				e := newTestEngine(t, Config{CacheDir: dir, DisableZoneMaps: true, OnEvent: func(ev obs.Event) {
					if ev.Kind == obs.EventRestored {
						restored = append(restored, ev.Structure)
					}
				}})
				if err := c.register(e); err != nil {
					t.Fatal(err)
				}
				return e
			}
			e := mk()
			queryAt(t, e, "SELECT SUM(col1) FROM t WHERE col2 < 50", 1)
			e.Close()
			for _, k := range []vault.Kind{c.kind, vault.KindShreds} {
				path := e.vault.EntryPath("t", k)
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				binary.LittleEndian.PutUint16(b[4:], 1) // the version, after the magic
				h := fnv.New64a()
				h.Write(b[:len(b)-8])
				binary.LittleEndian.PutUint64(b[len(b)-8:], h.Sum64())
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			e = mk()
			defer e.Close()
			res := queryAt(t, e, "SELECT SUM(col1) FROM t WHERE col2 < 50", 1)
			if len(restored) != 0 || !strings.Contains(strings.Join(res.Stats.AccessPaths, " "), c.cold) {
				t.Fatalf("restored %v, paths %v: want nothing restored and a cold %s scan", restored, res.Stats.AccessPaths, c.cold)
			}
			if res.Int64(0, 0) != 300 {
				t.Fatalf("SUM = %d, want 300", res.Int64(0, 0))
			}
		})
	}
}
