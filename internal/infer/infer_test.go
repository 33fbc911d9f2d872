package infer

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rawdb"
	"rawdb/internal/storage/rootfile"
)

// TestEngineFlags parses one argument list through the shared binder and
// checks the engine configuration and table specs it describes, the
// defaults, the flag errors, and an engine opened from them.
func TestEngineFlags(t *testing.T) {
	parse := func(args ...string) *EngineFlags {
		t.Helper()
		var ef EngineFlags
		fs := flag.NewFlagSet("rawql", flag.ContinueOnError)
		ef.Bind(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return &ef
	}
	ef := parse("-csv", "a=a.csv", "-csv", "b=b.csv", "-json", "j=j.jsonl", "-bin", "x=x.bin",
		"-root", "ev.root", "-dataset", "d=logs/*.csv", "-strategy", "JIT", "-workers", "4",
		"-cachedir", "vault", "-cachebudget", "4096", "-nopushdown", "-nozonemaps", "-noshredcache",
		"-query-log", "q.log", "-slow-query-ms", "5", "-faults", "vault.read:err", "-fault-seed", "9")
	cfg, err := ef.config()
	if err != nil {
		t.Fatal(err)
	}
	want := raw.Config{Strategy: raw.StrategyJIT, Parallelism: 4, CacheDir: "vault", CacheBudget: 4096,
		DisablePushdown: true, DisableZoneMaps: true, DisableShredCache: true, SlowQueryMillis: 5}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("config = %+v, want %+v", cfg, want)
	}
	wantSpecs := Specs{CSVs: []string{"a=a.csv", "b=b.csv"}, Bins: []string{"x=x.bin"},
		JSONs: []string{"j=j.jsonl"}, Roots: []string{"ev.root"}, Datasets: []string{"d=logs/*.csv"}}
	if !reflect.DeepEqual(ef.Specs, wantSpecs) {
		t.Errorf("specs = %+v, want %+v", ef.Specs, wantSpecs)
	}
	if ef.QueryLog != "q.log" || ef.Faults != "vault.read:err" || ef.FaultSeed != 9 {
		t.Errorf("query log %q, faults %q seed %d", ef.QueryLog, ef.Faults, ef.FaultSeed)
	}

	def := parse()
	if cfg, err := def.config(); err != nil || !reflect.DeepEqual(cfg, raw.Config{Strategy: raw.StrategyShreds, Parallelism: 1}) || def.FaultSeed != 1 {
		t.Errorf("defaults: config %+v, %v, fault seed %d", cfg, err, def.FaultSeed)
	}
	for _, args := range [][]string{{"-strategy", "nope"}, {"-slow-query-ms", "5"}} {
		if _, err := parse(args...).config(); err == nil {
			t.Errorf("%v: no error", args)
		}
	}

	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte("1,2.5\n3,4.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, closeAll, err := parse("-csv", "t="+path, "-workers", "2").Open()
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll()
	res, err := eng.Query("SELECT SUM(col2) FROM t WHERE col1 > 0")
	if err != nil || res.Value(0, 0) != 7.0 {
		t.Fatalf("query over the opened engine: %v, %v", res, err)
	}
}

// TestFileSchemaTruncatedUnderMapping: a file truncated while its schema is
// inferred from a mapping faults the read past its new end; fileSchema
// reports that as an error instead of crashing the process.
func TestFileSchemaTruncatedUnderMapping(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte(strings.Repeat("1,2.5\n", 4096)), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := fileSchema(path, func(data []byte) ([]raw.Column, error) {
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
		var sum int
		for _, b := range data {
			sum += int(b)
		}
		return []raw.Column{{Name: fmt.Sprint(sum), Type: raw.Int64}}, nil
	})
	if err == nil {
		t.Skip("the file was read from a heap copy: no mapping on this platform")
	}
}

// TestRegisterRootTrees: -root registers every tree of the file with all its
// branches, listed from a mapping the engine does not keep: after Register no
// byte of the file is mapped, and the first query maps it by path.
func TestRegisterRootTrees(t *testing.T) {
	var buf bytes.Buffer
	w := rootfile.NewWriter(&buf, rootfile.Options{BasketEntries: 4, Compress: true})
	ev := w.Tree("events")
	id, eta := ev.Branch("eventID", raw.Int64), ev.Branch("eta", raw.Float64)
	pt := w.Tree("muons").Branch("pt", raw.Float64)
	for i := range 10 {
		id.AppendInt64(int64(i))
		eta.AppendFloat64(float64(i) / 2)
		pt.AppendFloat64(float64(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ev.root")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := raw.NewEngine(raw.Config{})
	if err := Register(eng, Specs{Roots: []string{path}}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().Snapshot()["raw.mapped_bytes"]; got != 0 {
		t.Fatalf("raw.mapped_bytes = %d after Register", got)
	}
	want := map[string][]raw.Column{
		"events": {{Name: "eventID", Type: raw.Int64}, {Name: "eta", Type: raw.Float64}},
		"muons":  {{Name: "pt", Type: raw.Float64}},
	}
	if got := eng.Tables(); !reflect.DeepEqual(got, []string{"events", "muons"}) {
		t.Fatalf("tables %v", got)
	}
	for name, schema := range want {
		tab, err := eng.Internal().Catalog().Lookup(name)
		if err != nil || !reflect.DeepEqual(tab.Schema, schema) || tab.Path != path {
			t.Fatalf("%s: %+v, %v; want schema %v by path", name, tab, err, schema)
		}
	}
	res, err := eng.Query("SELECT SUM(eta) FROM events WHERE eventID > 5")
	if err != nil || res.Value(0, 0) != 15.0 {
		t.Fatalf("query: %v, %v", res, err)
	}
}
