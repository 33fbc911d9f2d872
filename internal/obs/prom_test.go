package obs

import (
	"slices"
	"strings"
	"testing"
)

func TestObsPromName(t *testing.T) {
	cases := map[string]string{
		"query.ns":                 "rawdb_query_ns",
		"lifecycle.stale-manifest": "rawdb_lifecycle_stale_manifest",
		"a b%c":                    "rawdb_a_b_c",
		"Colon:ok":                 "rawdb_Colon:ok",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
		if !validPromName(PromName(in)) {
			t.Errorf("PromName(%q) not in the prom charset", in)
		}
	}
}

func TestObsBucketBound(t *testing.T) {
	// Bucket i covers [2^i, 2^(i+1)); its inclusive upper edge is 2^(i+1)-1.
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 1000} {
		h.Observe(v)
	}
	b := h.Buckets()
	if b[0] != 2 { // 0 and 1 share bucket 0
		t.Fatalf("bucket 0 = %d, want 2", b[0])
	}
	if b[1] != 2 { // 2 and 3
		t.Fatalf("bucket 1 = %d, want 2", b[1])
	}
	if b[bucketOf(1000)] != 1 {
		t.Fatalf("bucket of 1000 = %d, want 1", b[bucketOf(1000)])
	}
	if BucketBound(0) != 1 || BucketBound(1) != 3 || BucketBound(2) != 7 {
		t.Fatalf("bucket bounds = %d,%d,%d, want 1,3,7",
			BucketBound(0), BucketBound(1), BucketBound(2))
	}
	for i := 1; i < histBuckets; i++ {
		if BucketBound(i) <= BucketBound(i-1) {
			t.Fatalf("bucket bounds not increasing at %d", i)
		}
	}
}

func TestObsWritePrometheusLints(t *testing.T) {
	r := NewRegistry()
	r.Counter("query.count").Add(3)
	r.Describe("query.count", "queries that completed")
	r.Counter("prune.rows").Add(42)
	v := int64(7)
	r.Gauge("shred.pool.bytes", func() int64 { return v })
	h := r.Histogram("query.ns")
	for _, ns := range []int64{100, 2000, 2000, 1 << 20} {
		h.Observe(ns)
	}

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP rawdb_query_count queries that completed\n",
		"# HELP rawdb_prune_rows rawdb counter prune.rows\n",
		"# TYPE rawdb_query_count counter\n",
		"rawdb_query_count 3\n",
		"# TYPE rawdb_shred_pool_bytes gauge\n",
		"rawdb_shred_pool_bytes 7\n",
		"# TYPE rawdb_query_ns histogram\n",
		"rawdb_query_ns_bucket{le=\"+Inf\"} 4\n",
		"rawdb_query_ns_sum 1052676\n",
		"rawdb_query_ns_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The writer's output must satisfy the same linter CI runs on a live
	// scrape.
	if err := LintPrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("writer output fails lint: %v\n%s", err, out)
	}
	// Two consecutive expositions of unchanged state are byte-identical.
	var buf2 strings.Builder
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Fatal("exposition not deterministic")
	}
}

func TestObsLintPrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"bad name":        "# TYPE 2bad counter\n2bad 1\n",
		"sample pre-TYPE": "orphan 1\n",
		"duplicate TYPE":  "# TYPE x counter\n# TYPE x counter\nx 1\n",
		"float value":     "# TYPE x counter\nx 1.5\n",
		"decreasing buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"no +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"count mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
	}
	for name, in := range cases {
		if err := LintPrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("%s: lint accepted invalid exposition:\n%s", name, in)
		}
	}
}

// TestObsFormatSorted: /metrics renders families sorted by name and is
// byte-identical across scrapes of unchanged state.
func TestObsFormatSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Inc()
	r.Counter("alpha").Inc()
	r.Counter("midway").Inc()
	scrape := func() string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := scrape()
	var names []string
	for _, l := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(l, "# TYPE "); ok {
			names = append(names, strings.Fields(name)[0])
		}
	}
	if want := []string{"rawdb_alpha", "rawdb_midway", "rawdb_zeta"}; !slices.Equal(names, want) {
		t.Fatalf("families %v, want %v", names, want)
	}
	if scrape() != out {
		t.Fatal("exposition not deterministic across scrapes of unchanged state")
	}
}
