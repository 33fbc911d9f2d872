package main

import (
	"fmt"
	"runtime"

	raw "rawdb"
	gen "rawdb/internal/workload"
)

// join_agg measures the operators above the scans: every input column the
// cycle touches is already a shred when measurement starts, so hash build and
// probe, two-stage aggregation, exact float sums and the exchange do the work
// and no raw byte is read. Batch-probe, arena or fused-loop work shows here
// and nowhere in the cold workloads.

const (
	joinPairRows   = 100_000
	joinEventRows  = 200_000
	joinWarmCycles = 2  // untimed cycles that build the shreds
	joinCycle      = 10 // queries in the cycle
)

func init() {
	register(&workload{name: "join_agg", ops: 1200, clients: 1, cycle: joinCycle, setup: setupJoin})
}

type joinQuery struct {
	class string
	sql   string
	rows  int
	want  answer
}

type joinSession struct {
	eng     *raw.Engine
	bytes   int64
	queries []joinQuery
}

func setupJoin(e *env) (session, error) {
	ads, bds, err := gen.NarrowShuffledPair(e.rows(joinPairRows), e.cfg.seed)
	if err != nil {
		return nil, err
	}
	eds, err := gen.Events(e.rows(joinEventRows), e.cfg.seed+1)
	if err != nil {
		return nil, err
	}
	a, err := newTable(ads)
	if err != nil {
		return nil, err
	}
	b, err := newTable(bds)
	if err != nil {
		return nil, err
	}
	ev, err := newTable(eds)
	if err != nil {
		return nil, err
	}
	eng := raw.NewEngine(raw.Config{Parallelism: runtime.GOMAXPROCS(0)})
	for _, reg := range []error{
		eng.RegisterBinaryData("a", ads.Bin, a.schema),
		eng.RegisterBinaryData("b", bds.Bin, b.schema),
		eng.RegisterJSONData("ev", eds.JSONL, ev.schema),
	} {
		if reg != nil {
			return nil, reg
		}
	}
	s := &joinSession{eng: eng, bytes: int64(len(ads.Bin) + len(bds.Bin) + len(eds.JSONL))}

	// Four joins: the projected column on the probe side (a, Figure 11) and
	// on the build side (b, Figure 12), each at two selectivities of the
	// filter on b.
	key, filter := a.col("col1"), b.col("col2")
	for _, side := range []struct {
		name string
		t    *table
	}{{"a", a}, {"b", b}} {
		for _, sel := range []float64{0.1, 0.4} {
			lt := gen.Threshold(sel)
			s.queries = append(s.queries, joinQuery{
				class: "join",
				sql: fmt.Sprintf("SELECT MAX(%[1]s.col11), SUM(%[1]s.col21), COUNT(*) FROM a, b "+
					"WHERE a.col1 = b.col1 AND b.col2 < %[2]d", side.name, lt),
				rows: a.rows + b.rows,
				want: joinAggregate(a, b, key, []agg{{aggMax, side.t, a.col("col11")},
					{aggSum, side.t, a.col("col21")}, {fn: aggCount}}, filter, lt),
			})
		}
	}
	// Low-cardinality groups (100 runs, 64 cell counts) with exact float AVG
	// and SUM, one with a HAVING that about half the groups pass. There are
	// four of these in the cycle of ten so that the cycle's median and 90th
	// percentile each fall inside one kind of query, not between two kinds:
	// by cost the cycle is 2 selective joins, 4 of these, 2 wide joins and 2
	// high-cardinality group-bys.
	run, ncells := ev.col("run"), ev.col("payload.ncells")
	energy, eta := ev.col("payload.energy"), ev.col("payload.eta")
	having := float64(gen.ValueRange / 2048) // the mean of payload.energy
	s.queries = append(s.queries,
		joinQuery{class: "group",
			sql: fmt.Sprintf("SELECT run, AVG(payload.energy), COUNT(*) FROM ev GROUP BY run "+
				"HAVING AVG(payload.energy) > %d", int64(having)),
			rows: ev.rows,
			want: groupBy(ev, run, []agg{{aggAvg, ev, energy}, {fn: aggCount}}, func(accs []accum) bool {
				avg, _ := accs[0].fsum.Float64()
				return avg/float64(accs[0].n) > having
			})},
		joinQuery{class: "group",
			sql:  "SELECT run, SUM(payload.eta), MAX(payload.energy) FROM ev GROUP BY run",
			rows: ev.rows,
			want: groupBy(ev, run, []agg{{aggSum, ev, eta}, {aggMax, ev, energy}}, nil)},
		joinQuery{class: "group",
			sql:  "SELECT payload.ncells, AVG(payload.eta), MAX(payload.energy) FROM ev GROUP BY payload.ncells",
			rows: ev.rows,
			want: groupBy(ev, ncells, []agg{{aggAvg, ev, eta}, {aggMax, ev, energy}}, nil)},
		joinQuery{class: "group",
			sql:  "SELECT payload.ncells, SUM(payload.energy), COUNT(*) FROM ev GROUP BY payload.ncells",
			rows: ev.rows,
			want: groupBy(ev, ncells, []agg{{aggSum, ev, energy}, {fn: aggCount}}, nil)})
	// High-cardinality groups: col3 is uniform over 1e9, so nearly every
	// qualifying row is its own group.
	for _, t := range []struct {
		name string
		t    *table
	}{{"a", a}, {"b", b}} {
		lt := gen.Threshold(0.4)
		col2 := t.t.ints[t.t.col("col2")]
		col3 := t.t.ints[t.t.col("col3")]
		sub := t.t.pick(func(r int) bool { return col2[r] < lt && col3[r] >= 2097152 })
		s.queries = append(s.queries, joinQuery{class: "group",
			sql:  fmt.Sprintf("SELECT col3, COUNT(*), MAX(col4) FROM %s WHERE col2 < %d AND col3 >= 2097152 GROUP BY col3", t.name, lt),
			rows: t.t.rows,
			want: groupBy(sub, sub.col("col3"), []agg{{fn: aggCount}, {aggMax, sub, sub.col("col4")}}, nil)})
	}

	if len(s.queries) != joinCycle {
		return nil, fmt.Errorf("the cycle has %d queries, not %d", len(s.queries), joinCycle)
	}

	rec := newRecorder(nil)
	for i := 0; i < joinWarmCycles*len(s.queries); i++ {
		q := s.queries[i%len(s.queries)]
		rec.query(eng, q.class, q.sql, q.rows, q.want)
	}
	if rec.failed > 0 {
		eng.Close()
		return nil, fmt.Errorf("warm-up: %s", rec.firstFailure)
	}
	return s, nil
}

func (s *joinSession) measure(n int, rec *recorder) error {
	for i := 0; i < n; i++ {
		q := s.queries[i%len(s.queries)]
		rec.query(s.eng, q.class, q.sql, q.rows, q.want)
	}
	return nil
}

func (s *joinSession) engine() *raw.Engine { return s.eng }
func (s *joinSession) rawBytes() int64     { return s.bytes }
func (s *joinSession) close() error        { return s.eng.Close() }
