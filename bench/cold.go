package main

import (
	"fmt"
	"runtime"
	"time"

	raw "rawdb"
	gen "rawdb/internal/workload"
)

// The cold workloads measure the paper's data-to-query time: every operation
// is a fresh engine, a registration and the first query over the raw bytes.
//
// cold_csv runs serial (Parallelism 1, the rawql/rawserve default), so the
// CSV tokenizer, integer conversion, the sequential emitter and the capture
// of positional map, zone map and shreds do nearly all the work. cold_json
// runs at Parallelism nproc over nested JSONL, so it pays the key walker and
// float conversion instead, and is the only cold workload that pays the
// split, the exchange and the merge of per-morsel structures.

const (
	coldCSVRows  = 100_000
	coldJSONRows = 400_000
	coldWarmups  = 2 // untimed operations before the measured ones
)

func init() {
	register(&workload{name: "cold_csv", ops: 200, clients: 1, cycle: 1, setup: setupColdCSV})
	register(&workload{name: "cold_json", ops: 120, clients: 1, cycle: 1, setup: setupColdJSON})
}

type coldSession struct {
	parallelism int
	data        []byte
	register    func(eng *raw.Engine, data []byte) error
	sql         string
	rows        int
	want        answer
	last        *raw.Engine
}

func setupColdCSV(e *env) (session, error) {
	ds, err := gen.Narrow(e.rows(coldCSVRows), e.cfg.seed)
	if err != nil {
		return nil, err
	}
	t, err := newTable(ds)
	if err != nil {
		return nil, err
	}
	lt := gen.Threshold(0.4)
	schema := t.schema // the closure below must not keep the oracle's table alive
	s := &coldSession{
		parallelism: 1,
		data:        ds.CSV,
		register: func(eng *raw.Engine, data []byte) error {
			return eng.RegisterCSVData("t", data, schema)
		},
		sql:  fmt.Sprintf("SELECT MAX(col11), SUM(col21), COUNT(*) FROM t WHERE col1 < %d", lt),
		rows: t.rows,
		want: aggregate(t, []agg{{aggMax, t, t.col("col11")}, {aggSum, t, t.col("col21")}, {fn: aggCount}},
			t.col("col1"), lt),
	}
	return s, s.warm()
}

func setupColdJSON(e *env) (session, error) {
	ds, err := gen.Events(e.rows(coldJSONRows), e.cfg.seed)
	if err != nil {
		return nil, err
	}
	t, err := newTable(ds)
	if err != nil {
		return nil, err
	}
	schema := t.schema // as in setupColdCSV
	s := &coldSession{
		parallelism: runtime.GOMAXPROCS(0),
		data:        ds.JSONL,
		register: func(eng *raw.Engine, data []byte) error {
			return eng.RegisterJSONData("ev", data, schema)
		},
		sql:  "SELECT MAX(payload.energy), SUM(payload.eta), COUNT(*) FROM ev WHERE run < 40",
		rows: t.rows,
		want: aggregate(t, []agg{{aggMax, t, t.col("payload.energy")}, {aggSum, t, t.col("payload.eta")},
			{fn: aggCount}}, t.col("run"), 40),
	}
	return s, s.warm()
}

func (s *coldSession) warm() error {
	rec := newRecorder(nil)
	for i := 0; i < coldWarmups; i++ {
		s.op(rec)
	}
	if rec.failed > 0 {
		return fmt.Errorf("warm-up: %s", rec.firstFailure)
	}
	return nil
}

// op is one cold operation. The collection runs before, not inside, the timed
// region: the previous operation's engine is garbage by then, and whether the
// collector happens to run during the next scan would otherwise decide a
// quarter of the spread.
func (s *coldSession) op(rec *recorder) {
	runtime.GC()
	opts, tr := rec.traceOpts()
	start := time.Now()
	eng := raw.NewEngine(raw.Config{Parallelism: s.parallelism})
	var res *raw.Result
	err := s.register(eng, s.data)
	if err == nil {
		res, err = eng.QueryOpt(s.sql, opts)
	}
	d := time.Since(start)
	rec.recordResult("cold", start, d, s.rows, res, tr, s.want, err)
	s.last = eng
}

func (s *coldSession) measure(n int, rec *recorder) error {
	for i := 0; i < n; i++ {
		s.op(rec)
	}
	return nil
}

func (s *coldSession) engine() *raw.Engine { return s.last }
func (s *coldSession) rawBytes() int64     { return int64(len(s.data)) }
func (s *coldSession) close() error        { return s.last.Close() }
