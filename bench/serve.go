package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	raw "rawdb"
	"rawdb/internal/server"
	gen "rawdb/internal/workload"
)

// serve_mixed measures what a rawserve user sees: nproc closed-loop sessions
// (even ones on the line protocol, odd ones on HTTP) against an in-process
// server with default options, over an engine that was restarted warm from
// its vault. Per-query fixed costs — parse, plan, admission, wire encoding —
// dominate, so this is the workload where a scan-side gain that adds plan,
// publish or lock cost shows as a loss.

const (
	serveTableRows = 100_000
	serveLogRows   = 110_000
	serveLogChunks = 11 // 8 registered at set-up, 3 arrive during the run
	serveBudget    = 256 << 20
)

// serveArrivals are the chunks that arrive during the run, in order. They sit
// between registered chunks in col1 order, so every logs answer changes when
// one of them lands.
var serveArrivals = []int{3, 7, 10}

func init() {
	register(&workload{name: "serve_mixed", ops: 24000, clients: serveSessions(), setup: setupServe})
}

func serveSessions() int { return max(runtime.GOMAXPROCS(0), 1) }

// serveQuery is one query text with the oracle's answer for each number of
// arrived partitions (a single answer for queries that do not read logs).
type serveQuery struct {
	class string
	sql   string
	rows  int
	want  []answer
}

// endpoints is an in-process server.Server on two loopback listeners, one per
// wire protocol.
type endpoints struct {
	srv      *server.Server
	line     net.Listener
	lineDone chan error
	httpSrv  *http.Server
	httpDone chan error
	httpAddr string
}

// listen serves eng with default options on 127.0.0.1:0 listeners.
func listen(eng *raw.Engine) (*endpoints, error) {
	ep := &endpoints{srv: server.New(eng, server.Options{})}
	var err error
	if ep.line, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	ep.lineDone = make(chan error, 1)
	go func() { ep.lineDone <- ep.srv.ServeLine(ep.line) }()
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ep.stop()
		return nil, err
	}
	ep.httpAddr = hl.Addr().String()
	ep.httpSrv = &http.Server{Handler: ep.srv.Handler()}
	ep.httpDone = make(chan error, 1)
	go func() { ep.httpDone <- ep.httpSrv.Serve(hl) }()
	return ep, nil
}

// stop closes both listeners and returns once ServeLine and Serve have
// returned, which is once every connection goroutine has ended.
func (ep *endpoints) stop() error {
	ep.line.Close()
	<-ep.lineDone
	if ep.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ep.httpSrv.Shutdown(ctx)
	<-ep.httpDone
	return err
}

// dial opens one session: the line protocol for even sessions, HTTP for odd.
func (ep *endpoints) dial(session int) (client, error) {
	if session%2 == 0 {
		c, err := server.Dial(ep.line.Addr().String())
		if err != nil {
			return nil, err
		}
		return lineClient{c}, nil
	}
	return httpClient{&http.Client{Transport: &http.Transport{}}, "http://" + ep.httpAddr + "/query"}, nil
}

type serveSession struct {
	e   *env
	eng *raw.Engine
	ep  *endpoints

	hot, rowsQ, logs []serveQuery
	logDir, incoming string
	chunks           [][]byte
	schema           []raw.Column
	dataBytes        atomic.Int64 // raw bytes the serving engine can see

	// arriving counts partitions whose rename has begun, arrived those whose
	// rename has returned: a reply may reflect any count between arrived at
	// send and arriving at reply.
	arriving, arrived atomic.Int32
}

func setupServe(e *env) (session, error) {
	s := &serveSession{e: e}
	if err := s.generate(); err != nil {
		return nil, err
	}
	vaultDir := filepath.Join(e.dir, "vault")
	tpath := filepath.Join(e.dir, "t.csv")

	// First life: build the structures cold and leave them in the vault.
	first := raw.NewEngine(raw.Config{CacheDir: vaultDir, CacheBudget: serveBudget})
	if err := s.registerAll(first, tpath); err != nil {
		return nil, err
	}
	rec := newRecorder(nil)
	for _, qs := range [][]serveQuery{s.hot, s.rowsQ, s.logs} {
		for _, q := range qs {
			rec.query(first, "warmup", q.sql, q.rows, q.want[0])
		}
	}
	first.FlushVault()
	if err := first.Close(); err != nil {
		return nil, err
	}
	if rec.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", rec.firstFailure)
	}

	// Second life: a restart on the same CacheDir, which is what serves.
	cfg := raw.Config{CacheDir: vaultDir, CacheBudget: serveBudget}
	if e.acct != nil {
		// Options.Trace does not cross the wire; the query log does the same
		// job from inside: phases for every query, the span tree for those
		// at or over one millisecond.
		cfg.QueryLog = raw.NewQueryLog(logCollector{e.acct})
		cfg.SlowQueryMillis = 1
	}
	s.eng = raw.NewEngine(cfg)
	if err := s.registerAll(s.eng, tpath); err != nil {
		return nil, err
	}
	var err error
	if s.ep, err = listen(s.eng); err != nil {
		s.eng.Close()
		return nil, err
	}
	return s, nil
}

// generate writes the raw files and computes every answer the run can need.
func (s *serveSession) generate() error {
	e := s.e
	tds, err := gen.NarrowSorted(e.rows(serveTableRows), e.cfg.seed)
	if err != nil {
		return err
	}
	lds, err := gen.NarrowSorted(e.rows(serveLogRows), e.cfg.seed+1)
	if err != nil {
		return err
	}
	t, err := newTable(tds)
	if err != nil {
		return err
	}
	logs, err := newTable(lds)
	if err != nil {
		return err
	}
	s.schema = t.schema
	s.dataBytes.Store(int64(len(tds.CSV)))
	if err := os.WriteFile(filepath.Join(e.dir, "t.csv"), tds.CSV, 0o644); err != nil {
		return err
	}
	s.logDir, s.incoming = filepath.Join(e.dir, "logs"), filepath.Join(e.dir, "incoming")
	for _, d := range []string{s.logDir, s.incoming} {
		if err := os.RemoveAll(d); err != nil { // a repeated set-up starts over
			return err
		}
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(filepath.Join(e.dir, "vault")); err != nil {
		return err
	}
	s.chunks = gen.SplitRows(lds.CSV, serveLogChunks)
	if len(s.chunks) != serveLogChunks {
		return fmt.Errorf("logs split into %d chunks, want %d", len(s.chunks), serveLogChunks)
	}
	// chunkOf[r] is the chunk holding row r of logs.
	chunkOf := make([]int, 0, logs.rows)
	for c, chunk := range s.chunks {
		for n := bytes.Count(chunk, []byte{'\n'}); n > 0; n-- {
			chunkOf = append(chunkOf, c)
		}
	}
	late := make(map[int]int) // arriving chunk -> arrivals needed to see it
	for i, c := range serveArrivals {
		late[c] = i + 1
	}
	for c, chunk := range s.chunks {
		if late[c] == 0 {
			if err := os.WriteFile(s.partPath(c), chunk, 0o644); err != nil {
				return err
			}
			s.dataBytes.Add(int64(len(chunk)))
		}
	}

	col1 := t.col("col1")
	for _, c := range []string{"col11", "col12", "col21", "col5"} {
		for _, sel := range []float64{0.01, 0.05, 0.1} {
			lt := gen.Threshold(sel)
			s.hot = append(s.hot, serveQuery{class: "hot",
				sql:  fmt.Sprintf("SELECT MAX(%s), COUNT(*) FROM t WHERE col1 < %d", c, lt),
				rows: t.rows,
				want: []answer{aggregate(t, []agg{{aggMax, t, t.col(c)}, {fn: aggCount}}, col1, lt)}})
		}
	}
	lt := gen.Threshold(0.01)
	s.rowsQ = []serveQuery{{class: "rows",
		sql:  fmt.Sprintf("SELECT col1, col2 FROM t WHERE col1 < %d", lt),
		rows: t.rows,
		want: []answer{selectRows(t, []int{col1, t.col("col2")}, col1, lt)}}}
	visible := make([]*table, len(serveArrivals)+1)
	for k := range visible {
		visible[k] = logs.pick(func(r int) bool { return late[chunkOf[r]] <= k })
	}
	for _, sel := range []float64{0.2, 0.5, 0.9} {
		lt := gen.Threshold(sel)
		q := serveQuery{class: "logs", rows: logs.rows,
			sql: fmt.Sprintf("SELECT MAX(col5), SUM(col6), COUNT(*) FROM logs WHERE col1 < %d", lt)}
		for _, v := range visible {
			q.want = append(q.want, aggregate(v, []agg{{aggMax, v, v.col("col5")},
				{aggSum, v, v.col("col6")}, {fn: aggCount}}, col1, lt))
		}
		s.logs = append(s.logs, q)
	}
	return nil
}

func (s *serveSession) partPath(chunk int) string {
	return filepath.Join(s.logDir, fmt.Sprintf("part-%02d.csv", chunk))
}

func (s *serveSession) registerAll(eng *raw.Engine, tpath string) error {
	if err := eng.RegisterCSV("t", tpath, s.schema); err != nil {
		return err
	}
	return eng.RegisterDataset("logs", s.logDir, s.schema)
}

// arrive lands the next partition: written outside the dataset directory and
// renamed in, so the engine never sees a partial file.
func (s *serveSession) arrive() error {
	chunk := serveArrivals[s.arrived.Load()]
	tmp := filepath.Join(s.incoming, "part.csv")
	if err := os.WriteFile(tmp, s.chunks[chunk], 0o644); err != nil {
		return err
	}
	s.arriving.Add(1)
	if err := os.Rename(tmp, s.partPath(chunk)); err != nil {
		return err
	}
	s.arrived.Add(1)
	s.dataBytes.Add(int64(len(s.chunks[chunk])))
	return nil
}

// client sends one query and returns the rows of the reply.
type client interface {
	query(sql string) ([][]string, error)
	close()
}

type lineClient struct{ c *server.Client }

func (l lineClient) query(sql string) ([][]string, error) {
	resp, err := l.c.Query(server.Request{Query: sql})
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}
func (l lineClient) close() { l.c.Close() }

type httpClient struct {
	c   *http.Client
	url string
}

func (h httpClient) query(sql string) ([][]string, error) {
	body, err := json.Marshal(server.Request{Query: sql})
	if err != nil {
		return nil, err
	}
	r, err := h.c.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	var resp server.Response
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		return nil, err
	}
	if r.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", r.StatusCode, resp.Error)
	}
	return resp.Rows, nil
}
func (h httpClient) close() { h.c.CloseIdleConnections() }

// serveMix is one block of a session's operations: six hot aggregates, two
// row-returning queries and two dataset aggregates, in seeded order.
var serveMix = []string{"hot", "hot", "hot", "hot", "hot", "hot", "rows", "rows", "logs", "logs"}

func (s *serveSession) measure(n int, rec *recorder) error {
	sessions := serveSessions()
	errs := make(chan error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.runSession(i, n/sessions, rec); err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (s *serveSession) runSession(session, n int, rec *recorder) error {
	c, err := s.ep.dial(session)
	if err != nil {
		return err
	}
	defer c.close()
	rng := rand.New(rand.NewSource(s.e.cfg.seed*1000 + int64(session)))
	mix := append([]string(nil), serveMix...)
	gap := max(n/5, 1) // session 0 lands a partition after every fifth of its operations
	justArrived := false
	for i := 0; i < n; i++ {
		if i%len(mix) == 0 {
			rng.Shuffle(len(mix), func(a, b int) { mix[a], mix[b] = mix[b], mix[a] })
		}
		if session == 0 && i > 0 && i%gap == 0 && int(s.arrived.Load()) < len(serveArrivals) {
			if err := s.arrive(); err != nil {
				return err
			}
			justArrived = true
		}
		var q serveQuery
		switch class := mix[i%len(mix)]; class {
		case "hot":
			q = s.hot[rng.Intn(len(s.hot))]
		case "rows":
			q = s.rowsQ[0]
		default:
			q = s.logs[rng.Intn(len(s.logs))]
			if justArrived { // the first scan of the new partition is its own class
				q.class, justArrived = "arrival", false
			}
		}
		lo := int(s.arrived.Load())
		start := time.Now()
		rows, err := c.query(q.sql)
		d := time.Since(start)
		hi := int(s.arriving.Load())
		got := wireAnswer(rows)
		want := q.want[0]
		for k := lo; k <= hi && k < len(q.want); k++ {
			if want = q.want[k]; err != nil || slices.Equal(got, want) {
				break
			}
		}
		rec.record(q.class, start, d, q.rows, got, want, err)
	}
	return nil
}

func (s *serveSession) engine() *raw.Engine { return s.eng }

func (s *serveSession) rawBytes() int64 { return s.dataBytes.Load() }

// close stops the server, waits for it, and closes the engine.
func (s *serveSession) close() error {
	err := s.ep.stop()
	s.eng.FlushVault()
	if cerr := s.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// logCollector feeds query-log records to the traced pass's account.
type logCollector struct{ acct *account }

func (l logCollector) Write(line []byte) (int, error) {
	var rec raw.QueryRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return 0, err
	}
	ns := func(phase string) time.Duration { return time.Duration(rec.PhaseNS[phase]) }
	l.acct.engine(-1, phases{parse: ns("parse"), analyze: ns("analyze"), plan: ns("plan"),
		exec: ns("exec"), publish: ns("publish")}, rec.SlowTrace)
	return len(line), nil
}
