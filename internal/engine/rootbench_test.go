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
// table of 1M entries (default baskets, uncompressed, and compressed in the
// "-compressed" cases): x and u uniform integers, f a uniform float, s the
// entry number (sorted). Tree p of the same file holds 100k keys k, uniform
// over t's entry numbers.
//
//	raw:              a full scan of two columns, shred capture off
//	raw-selective:    a 40 % predicate on u plus one other column, capture off
//	raw-clustered:    a 10 % predicate on s after one warm-up query, capture off
//	shreds-clustered: the same query under StrategyShreds, after the warm-up
//	late-join:        p joined to t's first 200k entries on k = s, t.f fetched
//	                  late above the join (so in p's order), capture off
//
// go test -run '^$' -bench BenchmarkRootScan -benchtime 20x ./internal/engine/
func BenchmarkRootScan(b *testing.B) {
	const n = 1_000_000
	dir := b.TempDir()
	rng := rand.New(rand.NewSource(1))
	x, u, f, k := make([]int64, n), make([]int64, n), make([]float64, n), make([]int64, n/10)
	for i := range n {
		x[i], u[i], f[i] = rng.Int63n(1_000_000), rng.Int63n(1_000_000), rng.Float64()
	}
	for i := range k {
		k[i] = rng.Int63n(n)
	}
	write := func(name string, compress bool) string {
		var buf bytes.Buffer
		w := rootfile.NewWriter(&buf, rootfile.Options{Compress: compress})
		tw := w.Tree("t")
		xb, ub := tw.Branch("x", vector.Int64), tw.Branch("u", vector.Int64)
		fb, sb := tw.Branch("f", vector.Float64), tw.Branch("s", vector.Int64)
		for i := range n {
			xb.AppendInt64(x[i])
			ub.AppendInt64(u[i])
			fb.AppendFloat64(f[i])
			sb.AppendInt64(int64(i))
		}
		kb := w.Tree("p").Branch("k", vector.Int64)
		for i := range n / 10 {
			kb.AppendInt64(k[i])
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		return path
	}
	paths := map[string]string{"": write("t.root", false), "-compressed": write("tz.root", true)}
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
		{"late-join", "", "SELECT SUM(t.f) FROM p, t WHERE p.k = t.s AND t.s < 200000",
			Config{Strategy: StrategyShreds, JoinPlacement: PlaceLate, DisableShredCache: true}},
	}
	for _, suffix := range []string{"", "-compressed"} {
		for _, c := range cases {
			b.Run(c.name+suffix, func(b *testing.B) {
				c.cfg.Parallelism = 1
				e := New(c.cfg)
				defer e.Close()
				if err := e.RegisterRoot("t", paths[suffix], "t", schema); err != nil {
					b.Fatal(err)
				}
				if err := e.RegisterRoot("p", paths[suffix], "p", []catalog.Column{{Name: "k", Type: vector.Int64}}); err != nil {
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
}
