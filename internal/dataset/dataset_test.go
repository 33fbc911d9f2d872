package dataset

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rawdb/internal/catalog"
)

func writeFile(t *testing.T, path string, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoverDirectory(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "b.jsonl"), "{\"a\":1}\n")
	writeFile(t, filepath.Join(dir, "a.csv"), "1,2\n")
	writeFile(t, filepath.Join(dir, "c.bin"), "")
	writeFile(t, filepath.Join(dir, ".hidden"), "junk")
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}

	m, err := Discover(dir, AutoFormat)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Parts) != 3 {
		t.Fatalf("got %d partitions, want 3", len(m.Parts))
	}
	wantFmt := []catalog.Format{catalog.CSV, catalog.JSON, catalog.Binary}
	wantID := []string{"a.csv", "b.jsonl", "c.bin"}
	for i, p := range m.Parts {
		if p.Format != wantFmt[i] || p.ID != wantID[i] {
			t.Fatalf("partition %d = %q %s, want %q %s", i, p.ID, p.Format, wantID[i], wantFmt[i])
		}
		if p.Rows != -1 {
			t.Fatalf("partition %d rows = %d before any scan", i, p.Rows)
		}
	}
	if m.NRows() != -1 {
		t.Fatalf("NRows = %d with unknown partitions", m.NRows())
	}
}

func TestDiscoverGlobAndOverride(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "p1.log"), "1,2\n")
	writeFile(t, filepath.Join(dir, "p2.log"), "3,4\n")
	writeFile(t, filepath.Join(dir, "other.txt"), "x")

	// Unknown extensions fail without an override...
	if _, err := Discover(filepath.Join(dir, "*.log"), AutoFormat); err == nil {
		t.Fatal("expected an inference error for .log files")
	}
	// ...and are forced by one.
	m, err := Discover(filepath.Join(dir, "*.log"), catalog.CSV)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Parts) != 2 || m.Parts[0].Format != catalog.CSV {
		t.Fatalf("got %+v", m.Parts)
	}

	// Unsupported overrides are rejected.
	if _, err := Discover(dir, catalog.Root); err == nil {
		t.Fatal("expected an error for a root override")
	}
}

func TestDiscoverEmpty(t *testing.T) {
	m, err := Discover(filepath.Join(t.TempDir(), "*.csv"), AutoFormat)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Parts) != 0 {
		t.Fatalf("got %d partitions from an empty match", len(m.Parts))
	}
	if m.NRows() != 0 {
		t.Fatalf("empty manifest NRows = %d", m.NRows())
	}
}

func TestIDCollision(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"x", "y"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dir, sub, "events.csv"), "1\n")
	}
	m, err := Discover(filepath.Join(dir, "*", "events.csv"), AutoFormat)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Parts) != 2 {
		t.Fatalf("got %d partitions", len(m.Parts))
	}
	if m.Parts[0].ID == m.Parts[1].ID {
		t.Fatalf("colliding IDs %q", m.Parts[0].ID)
	}
	for _, p := range m.Parts {
		if !strings.HasPrefix(p.ID, "events.csv@") {
			t.Fatalf("ID %q lacks the hash suffix", p.ID)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "a.csv"), "1,2\n")
	writeFile(t, filepath.Join(dir, "b.csv"), "3,4\n")
	old, err := Discover(dir, AutoFormat)
	if err != nil {
		t.Fatal(err)
	}

	// No change.
	cur, err := Discover(dir, AutoFormat)
	if err != nil {
		t.Fatal(err)
	}
	if d := Compare(old, cur); !d.Unchanged() || len(d.Kept) != 2 {
		t.Fatalf("no-op diff = %+v", d)
	}

	// Add c, rewrite b (size change), remove a.
	writeFile(t, filepath.Join(dir, "c.csv"), "5,6\n")
	writeFile(t, filepath.Join(dir, "b.csv"), "3,4\n7,8\n")
	if err := os.Remove(filepath.Join(dir, "a.csv")); err != nil {
		t.Fatal(err)
	}
	cur, err = Discover(dir, AutoFormat)
	if err != nil {
		t.Fatal(err)
	}
	d := Compare(old, cur)
	if d.Unchanged() {
		t.Fatal("diff missed the changes")
	}
	if len(d.Added) != 1 || cur.Parts[d.Added[0]].ID != "c.csv" {
		t.Fatalf("added = %v", d.Added)
	}
	if len(d.Changed) != 1 || old.Parts[d.Changed[0][0]].ID != "b.csv" {
		t.Fatalf("changed = %v", d.Changed)
	}
	if len(d.Removed) != 1 || old.Parts[d.Removed[0]].ID != "a.csv" {
		t.Fatalf("removed = %v", d.Removed)
	}
	if len(d.Kept) != 0 {
		t.Fatalf("kept = %v", d.Kept)
	}
}

// TestCompareIDChange: a new colliding base name elsewhere in the set
// hash-suffixes an existing partition's ID; Compare must classify the
// otherwise-identical file as changed (its cache namespace moved).
func TestCompareIDChange(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "x", "events.csv"), "1\n")
	pattern := filepath.Join(dir, "*", "events.csv")
	old, err := Discover(pattern, AutoFormat)
	if err != nil {
		t.Fatal(err)
	}
	if old.Parts[0].ID != "events.csv" {
		t.Fatalf("ID = %q", old.Parts[0].ID)
	}
	if err := os.MkdirAll(filepath.Join(dir, "y"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "y", "events.csv"), "2\n")
	cur, err := Discover(pattern, AutoFormat)
	if err != nil {
		t.Fatal(err)
	}
	d := Compare(old, cur)
	if len(d.Changed) != 1 || len(d.Added) != 1 || len(d.Kept) != 0 {
		t.Fatalf("diff = %+v", d)
	}
}

// TestCompareRenameOver: a file renamed over a partition at the same size and
// modification time is a change (the inode tells), while a manifest that does
// not know inodes (an in-memory one, or one from a platform without them)
// keeps the partition.
func TestCompareRenameOver(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.csv")
	writeFile(t, path, "1,2\n")
	old, err := Discover(dir, AutoFormat)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(t.TempDir(), "a.csv")
	writeFile(t, tmp, "3,4\n")
	mtime := time.Unix(0, old.Parts[0].MTime)
	if err := os.Chtimes(tmp, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	cur, err := Discover(dir, AutoFormat)
	if err != nil {
		t.Fatal(err)
	}
	if old.Parts[0].Inode == 0 {
		t.Skip("no inodes on this platform")
	}
	if d := Compare(old, cur); len(d.Changed) != 1 {
		t.Fatalf("rename over at the same size and mtime: diff = %+v", d)
	}
	old.Parts[0].Inode = 0
	if d := Compare(old, cur); len(d.Kept) != 1 {
		t.Fatalf("unknown inode: diff = %+v", d)
	}
}

func TestFormatForExt(t *testing.T) {
	cases := map[string]catalog.Format{
		".csv": catalog.CSV, "CSV": catalog.CSV, ".jsonl": catalog.JSON,
		".JSON": catalog.JSON, "ndjson": catalog.JSON, ".bin": catalog.Binary,
	}
	for ext, want := range cases {
		got, ok := FormatForExt(ext)
		if !ok || got != want {
			t.Fatalf("FormatForExt(%q) = %v, %v", ext, got, ok)
		}
	}
	if _, ok := FormatForExt(".parquet"); ok {
		t.Fatal("unexpected inference for .parquet")
	}
}
