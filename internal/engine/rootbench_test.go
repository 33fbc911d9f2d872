package engine

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/vector"
)

// BenchmarkRootScan times serial queries over a path-registered ROOT-like
// table of 1M entries (default baskets, uncompressed): x and u uniform
// integers, f a uniform float, s the entry number (sorted).
//
//	raw:              a full scan of two columns, shred capture off
//	raw-selective:    a 40 % predicate on u plus one other column, capture off
//	raw-clustered:    a 10 % predicate on s after one warm-up query, capture off
//	shreds-clustered: the same query under StrategyShreds, after the warm-up
//
// go test -run '^$' -bench BenchmarkRootScan -benchtime 20x ./internal/engine/
func BenchmarkRootScan(b *testing.B) {
	const n = 1_000_000
	path := filepath.Join(b.TempDir(), "t.root")
	var buf bytes.Buffer
	w := rootfile.NewWriter(&buf, rootfile.Options{})
	tw := w.Tree("t")
	xb, ub := tw.Branch("x", vector.Int64), tw.Branch("u", vector.Int64)
	fb, sb := tw.Branch("f", vector.Float64), tw.Branch("s", vector.Int64)
	rng := rand.New(rand.NewSource(1))
	for i := range n {
		xb.AppendInt64(rng.Int63n(1_000_000))
		ub.AppendInt64(rng.Int63n(1_000_000))
		fb.AppendFloat64(rng.Float64())
		sb.AppendInt64(int64(i))
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	schema := []catalog.Column{{Name: "x", Type: vector.Int64}, {Name: "u", Type: vector.Int64},
		{Name: "f", Type: vector.Float64}, {Name: "s", Type: vector.Int64}}
	const clustered = "SELECT SUM(f) FROM t WHERE s < 100000"
	cases := []struct {
		name, warm, sql string
		cfg             Config
	}{
		{"raw", "", "SELECT MAX(x), SUM(f) FROM t", Config{Strategy: StrategyJIT, DisableShredCache: true}},
		{"raw-selective", "", "SELECT SUM(f) FROM t WHERE u < 400000", Config{Strategy: StrategyJIT, DisableShredCache: true}},
		{"raw-clustered", clustered, clustered, Config{Strategy: StrategyJIT, DisableShredCache: true}},
		{"shreds-clustered", clustered, clustered, Config{Strategy: StrategyShreds}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			c.cfg.Parallelism = 1
			e := New(c.cfg)
			defer e.Close()
			if err := e.RegisterRoot("t", path, "t", schema); err != nil {
				b.Fatal(err)
			}
			if c.warm != "" {
				if _, err := e.Query(c.warm); err != nil {
					b.Fatal(err)
				}
			}
			for b.Loop() {
				if _, err := e.Query(c.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
