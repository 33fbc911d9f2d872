package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rawdb"
)

// testEngine builds an engine with one CSV table "t": col1 int64, col2
// float64, 2000 rows. Returns the engine and the reference values.
func testEngine(t testing.TB) (*raw.Engine, []int64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var b bytes.Buffer
	ints := make([]int64, 2000)
	floats := make([]float64, 2000)
	for i := range ints {
		ints[i] = rng.Int63n(1_000_000_000)
		floats[i] = rng.Float64() * 1e6
		fmt.Fprintf(&b, "%d,%s\n", ints[i], strconvFloat(floats[i]))
	}
	eng := raw.NewEngine(raw.Config{Strategy: raw.StrategyInSitu})
	t.Cleanup(func() { eng.Close() })
	schema := []raw.Column{{Name: "col1", Type: raw.Int64}, {Name: "col2", Type: raw.Float64}}
	if err := eng.RegisterCSVData("t", b.Bytes(), schema); err != nil {
		t.Fatal(err)
	}
	return eng, ints, floats
}

// serveResp runs one request through serve and decodes its response line as
// the line-protocol client does.
func serveResp(t *testing.T, ctx context.Context, srv *Server, req Request) (*Response, int) {
	t.Helper()
	line, status := srv.serve(ctx, req, nil)
	resp, err := decodeResponse(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		t.Fatalf("response line %q: %v", line, err)
	}
	return resp, status
}

func strconvFloat(f float64) string {
	return fmt.Sprintf("%.17g", f)
}

func TestWireRoundTripIsBitExact(t *testing.T) {
	eng, _, _ := testEngine(t)
	srv := New(eng, Options{})
	q := "SELECT SUM(col2), MAX(col2), COUNT(*) FROM t WHERE col1 < 700000000"
	want, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	resp, status := serveResp(t, context.Background(), srv, Request{Query: q})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, resp.Error)
	}
	if len(resp.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(resp.Rows))
	}
	gotSum := resp.Float64(0, 0)
	if math.Float64bits(gotSum) != math.Float64bits(want.Float64(0, 0)) {
		t.Fatalf("SUM over the wire = %x, in-process = %x",
			math.Float64bits(gotSum), math.Float64bits(want.Float64(0, 0)))
	}
	if got := resp.Float64(0, 1); math.Float64bits(got) != math.Float64bits(want.Float64(0, 1)) {
		t.Fatalf("MAX over the wire = %v, in-process = %v", got, want.Float64(0, 1))
	}
	if got := resp.Int64(0, 2); got != want.Int64(0, 2) {
		t.Fatalf("COUNT over the wire = %d, in-process = %d", got, want.Int64(0, 2))
	}
	if resp.Types[0] != "DOUBLE" || resp.Types[2] != "BIGINT" {
		t.Fatalf("wire types = %v", resp.Types)
	}
}

func TestDecodeCellRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 60} {
		got, err := DecodeCell("BIGINT", fmt.Sprintf("%d", v))
		if err != nil || got.(int64) != v {
			t.Fatalf("BIGINT %d round-tripped to %v (%v)", v, got, err)
		}
	}
	for _, v := range []float64{0, -0.0, 1.0 / 3.0, math.Pi, 1e308, 5e-324, math.Inf(1)} {
		cell := strconv.FormatFloat(v, 'g', -1, 64) // mirror appendResult
		got, err := DecodeCell("DOUBLE", cell)
		if err != nil || math.Float64bits(got.(float64)) != math.Float64bits(v) {
			t.Fatalf("DOUBLE %v (%q) round-tripped to %v (%v)", v, cell, got, err)
		}
	}
	if _, err := DecodeCell("NOPE", "1"); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestHTTPEndpoint(t *testing.T) {
	eng, _, _ := testEngine(t)
	srv := New(eng, Options{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	body, _ := json.Marshal(Request{Query: "SELECT COUNT(*) FROM t"})
	resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Int64(0, 0) != 2000 {
		t.Fatalf("COUNT(*) = %s", out.Rows[0][0])
	}

	// A broken query is a 400 with the error in-band.
	body, _ = json.Marshal(Request{Query: "SELECT FROM WHERE"})
	r2, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query status = %d, want 400", r2.StatusCode)
	}

	// Health and metrics endpoints answer.
	for _, path := range []string{"/healthz", "/metrics"} {
		r, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, r.StatusCode)
		}
	}
}

func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	eng, _, _ := testEngine(t)
	srv := New(eng, Options{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 30 * time.Millisecond})
	srv.sem <- struct{}{} // occupy the only slot
	defer func() { <-srv.sem }()

	// First waiter joins the queue and times out -> overloaded.
	_, err := srv.Execute(context.Background(), "SELECT COUNT(*) FROM t")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued-then-timed-out err = %v, want ErrOverloaded", err)
	}
	if got := srv.rejections.Load(); got != 1 {
		t.Fatalf("rejections = %d, want 1", got)
	}

	// With the queue held full, an extra arrival is rejected immediately.
	srv.queued.Add(1) // simulate a resident waiter
	start := time.Now()
	_, err = srv.Execute(context.Background(), "SELECT COUNT(*) FROM t")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue-full err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("queue-full rejection took %v; want immediate", d)
	}
	srv.queued.Add(-1)

	// The HTTP layer maps it to 429.
	resp, status := serveResp(t, context.Background(), srv, Request{Query: "SELECT COUNT(*) FROM t"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", status, resp.Error)
	}
}

func TestDeadlineMapsTo504(t *testing.T) {
	eng, _, _ := testEngine(t)
	srv := New(eng, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	resp, status := serveResp(t, ctx, srv, Request{Query: "SELECT COUNT(*) FROM t"})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, resp.Error)
	}
}

func TestExecuteCancelledContext(t *testing.T) {
	eng, _, _ := testEngine(t)
	srv := New(eng, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := srv.Execute(ctx, "SELECT COUNT(*) FROM t")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestLineProtocolSession(t *testing.T) {
	eng, _, _ := testEngine(t)
	srv := New(eng, Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.ServeLine(l)

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want, err := eng.Query("SELECT MAX(col2) FROM t WHERE col1 < 500000000")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // sequential reuse of one session
		resp, err := c.Query(Request{Query: "SELECT MAX(col2) FROM t WHERE col1 < 500000000"})
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Float64(0, 0); math.Float64bits(got) != math.Float64bits(want.Float64(0, 0)) {
			t.Fatalf("line-protocol MAX = %v, in-process = %v", got, want.Float64(0, 0))
		}
	}
	if _, err := c.Query(Request{Query: "SELECT nope FROM t"}); err == nil {
		t.Fatal("bad query over the line protocol succeeded")
	}
	// The error left the connection usable (strictly sequential protocol).
	if _, err := c.Query(Request{Query: "SELECT COUNT(*) FROM t"}); err != nil {
		t.Fatalf("session dead after an in-band error: %v", err)
	}
}

func TestConcurrentSessionsAgree(t *testing.T) {
	eng, _, _ := testEngine(t)
	srv := New(eng, Options{MaxConcurrent: 8})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.ServeLine(l)

	want, err := eng.Query("SELECT SUM(col2) FROM t WHERE col1 < 800000000")
	if err != nil {
		t.Fatal(err)
	}
	wantBits := math.Float64bits(want.Float64(0, 0))
	const sessions = 16
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 4; i++ {
				resp, err := c.Query(Request{Query: "SELECT SUM(col2) FROM t WHERE col1 < 800000000"})
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(resp.Float64(0, 0)) != wantBits {
					errs <- fmt.Errorf("session got %s, want bits %x", resp.Rows[0][0], wantBits)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := eng.Metrics().Snapshot()
	if snap["server.active"] != 0 || snap["server.queue"] != 0 {
		t.Fatalf("gauges not drained: active=%d queue=%d", snap["server.active"], snap["server.queue"])
	}
	if snap["server.query.ns.count"] < sessions {
		t.Fatalf("server.query.ns.count = %d, want >= %d", snap["server.query.ns.count"], sessions)
	}
}

func TestPrometheusEndpoint(t *testing.T) {
	eng, _, _ := testEngine(t)
	srv := New(eng, Options{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Run a query first so counters and histograms carry real values.
	body, _ := json.Marshal(Request{Query: "SELECT SUM(col2) FROM t WHERE col1 < 500000000"})
	r, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	resp, err := http.Get(hs.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The live scrape must pass the same format checker CI pipes curl output
	// through (cmd/promcheck).
	if err := raw.LintPrometheus(bytes.NewReader(data)); err != nil {
		t.Fatalf("scrape fails lint: %v\n%s", err, data)
	}
	for _, want := range []string{"rawdb_query_count", "rawdb_server_query_ns_bucket"} {
		if !bytes.Contains(data, []byte(want)) {
			t.Fatalf("scrape missing %q:\n%s", want, data)
		}
	}

	// Without the format parameter /metrics serves the same exposition.
	r2, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	plain, _ := io.ReadAll(r2.Body)
	if err := raw.LintPrometheus(bytes.NewReader(plain)); err != nil || !bytes.Contains(plain, []byte("rawdb_query_count")) {
		t.Fatalf("/metrics without ?format=prom is not the exposition (lint: %v):\n%s", err, plain)
	}
}

func TestDebugQueriesAndHeatEndpoints(t *testing.T) {
	eng, _, _ := testEngine(t)
	srv := New(eng, Options{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	body, _ := json.Marshal(Request{Query: "SELECT MAX(col2) FROM t WHERE col1 < 500000000"})
	r, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	// No query is running: the in-flight view is an empty JSON array.
	resp, err := http.Get(hs.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/queries status = %d", resp.StatusCode)
	}
	var inflight []raw.InflightQuery
	if err := json.NewDecoder(resp.Body).Decode(&inflight); err != nil {
		t.Fatalf("/debug/queries not JSON: %v", err)
	}
	if len(inflight) != 0 {
		t.Fatalf("idle server reports in-flight queries: %+v", inflight)
	}

	// The heat profile knows the table the query touched.
	hr, err := http.Get(hs.URL + "/debug/heat")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/debug/heat status = %d", hr.StatusCode)
	}
	var heat raw.HeatSnapshot
	if err := json.NewDecoder(hr.Body).Decode(&heat); err != nil {
		t.Fatalf("/debug/heat not JSON: %v", err)
	}
	if len(heat.Tables) != 1 || heat.Tables[0].Table != "t" || heat.Tables[0].Scans < 1 {
		t.Fatalf("heat = %+v", heat)
	}

	// Cancelling an unknown ID is a 404; a malformed ID is a 400.
	cr, err := http.Post(hs.URL+"/debug/queries/99999/cancel", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	if cr.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown id status = %d, want 404", cr.StatusCode)
	}
	br, err := http.Post(hs.URL+"/debug/queries/nope/cancel", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	br.Body.Close()
	if br.StatusCode != http.StatusBadRequest {
		t.Fatalf("cancel bad id status = %d, want 400", br.StatusCode)
	}
}
