package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	raw "rawdb"
	gen "rawdb/internal/workload"
)

// warm_adapt measures the adapted steady state: one long-lived serial engine
// whose cache budget holds 95 % of what the query sequence would build
// without one, so shred scans, positional-map and structural-index
// lookups, zone-map skips, eviction and recapture all happen beside each
// other. Tokenizing does little here; a tokenizer gain predicts no change.
//
// The sequence is a cycle of warmCycle queries that the client repeats. The
// cache evicts least recently used first, so after one pass what it holds
// depends only on the cycle, and from then on every pass evicts, recaptures
// and serves the same way: a query at one position of the cycle does the same
// work on every repetition, which is what lets the fastest repetition stand
// for its cost (see quietCycle).

const (
	warmNarrowRows = 50_000
	warmWideRows   = 12_000
	warmCycle      = 800 // queries in the cycle; one untimed pass warms the engine
	// warmBudget is the engine's CacheBudget. Frozen: sized once so that 0.75
	// of the measured operations are served from shreds alone. Without a
	// budget the cycle builds 47.5 MB and 0.82 are.
	warmBudget = 43 << 20
	zipfS      = 1.3
	// warmSequenceSeed draws the cycle, the same on every run.
	warmSequenceSeed = 12345
)

var warmSelectivities = []float64{0.001, 0.01, 0.1, 0.4}

func init() {
	register(&workload{name: "warm_adapt", ops: 16000, clients: 1, cycle: warmCycle, setup: setupWarm})
}

// warmOp is one pre-drawn query with the oracle's answer.
type warmOp struct {
	sql  string
	rows int
	want answer
}

type warmSession struct {
	eng   *raw.Engine
	bytes int64
	ops   []warmOp // the cycle
}

func setupWarm(e *env) (session, error) {
	nds, err := gen.Narrow(e.rows(warmNarrowRows), e.cfg.seed)
	if err != nil {
		return nil, err
	}
	wds, err := gen.Wide(e.rows(warmWideRows), e.cfg.seed+1)
	if err != nil {
		return nil, err
	}
	narrow, err := newTable(nds)
	if err != nil {
		return nil, err
	}
	wide, err := newTable(wds)
	if err != nil {
		return nil, err
	}
	// The budget follows the row multiplier so the smoke tests keep the
	// same cache pressure on their smaller tables.
	eng := raw.NewEngine(raw.Config{Parallelism: 1, CacheBudget: int64(warmBudget * e.cfg.rows)})
	for _, reg := range []error{
		eng.RegisterCSVData("c", nds.CSV, narrow.schema),
		eng.RegisterJSONData("j", nds.JSONL, narrow.schema),
		eng.RegisterBinaryData("b", nds.Bin, narrow.schema),
		eng.RegisterCSVData("w", wds.CSV, wide.schema),
	} {
		if reg != nil {
			return nil, reg
		}
	}
	s := &warmSession{eng: eng,
		bytes: int64(len(nds.CSV) + len(nds.JSONL) + len(nds.Bin) + len(wds.CSV))}

	// The whole cycle is drawn here so the oracle's answers exist before the
	// clock starts: table uniformly, aggregated and filtered columns by
	// Zipf rank, selectivity uniformly from the grid. The draw is frozen and
	// only the data follows -seed: what the cache evicts and recaptures is
	// chaotic in the order of the queries, and a seeded order moved the share
	// of shred-served operations between 0.70 and 0.77 and the median latency
	// with it by a quarter, which would drown any real change.
	rng := rand.New(rand.NewSource(warmSequenceSeed))
	narrowZipf := rand.NewZipf(rng, zipfS, 1, gen.NarrowCols-1)
	wideZipf := rand.NewZipf(rng, zipfS, 1, gen.WideCols/2-1)
	type queryKey struct {
		wide              bool
		aggCol, filterCol int
		lt                int64
	}
	memo := make(map[queryKey]answer) // c, j and b hold the same rows
	s.ops = make([]warmOp, warmCycle)
	for i := range s.ops {
		name := string("cjbw"[rng.Intn(4)])
		t, aggCol, filterCol := narrow, int(narrowZipf.Uint64()), int(narrowZipf.Uint64())
		if name == "w" { // aggregate a float column, filter an integer one
			t, aggCol, filterCol = wide, 2*int(wideZipf.Uint64())+1, 2*int(wideZipf.Uint64())
		}
		lt := gen.Threshold(warmSelectivities[rng.Intn(len(warmSelectivities))])
		key := queryKey{name == "w", aggCol, filterCol, lt}
		want, ok := memo[key]
		if !ok {
			want = aggregate(t, []agg{{aggMax, t, aggCol}, {fn: aggCount}}, filterCol, lt)
			memo[key] = want
		}
		s.ops[i] = warmOp{
			sql: fmt.Sprintf("SELECT MAX(%s), COUNT(*) FROM %s WHERE %s < %d",
				t.schema[aggCol].Name, name, t.schema[filterCol].Name, lt),
			rows: t.rows, want: want}
	}
	rec := newRecorder(nil)
	for _, op := range s.ops {
		rec.query(eng, "warmup", op.sql, op.rows, op.want)
	}
	if rec.failed > 0 {
		eng.Close()
		return nil, fmt.Errorf("warm-up: %s", rec.firstFailure)
	}
	return s, nil
}

// measure repeats the cycle. An operation's class is how it was served:
// "shred" when every access path came from the shred pool, "raw" when any
// path went back to the raw bytes.
func (s *warmSession) measure(n int, rec *recorder) error {
	for i := 0; i < n; i++ {
		op := s.ops[i%len(s.ops)]
		opts, tr := rec.traceOpts()
		start := time.Now()
		res, err := s.eng.QueryOpt(op.sql, opts)
		d := time.Since(start)
		class := "raw"
		if err == nil && shredServed(res.Stats.AccessPaths) {
			class = "shred"
		}
		rec.recordResult(class, start, d, op.rows, res, tr, op.want, err)
	}
	return nil
}

func shredServed(paths []string) bool {
	for _, p := range paths {
		if !strings.HasPrefix(p, "shred:") && !strings.HasPrefix(p, "push[") && !strings.HasPrefix(p, "zmap(") {
			return false
		}
	}
	return true
}

func (s *warmSession) engine() *raw.Engine { return s.eng }
func (s *warmSession) rawBytes() int64     { return s.bytes }
func (s *warmSession) close() error        { return s.eng.Close() }
