package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	raw "rawdb"
	"rawdb/internal/bytesconv"
	"rawdb/internal/catalog"
	"rawdb/internal/dataset"
	"rawdb/internal/exec"
	"rawdb/internal/insitu"
	"rawdb/internal/jit"
	"rawdb/internal/jsonidx"
	"rawdb/internal/posmap"
	"rawdb/internal/shred"
	"rawdb/internal/sql"
	"rawdb/internal/storage/binfile"
	"rawdb/internal/storage/csvfile"
	"rawdb/internal/storage/jsonfile"
	"rawdb/internal/synopsis"
	"rawdb/internal/vault"
	"rawdb/internal/vector"
	gen "rawdb/internal/workload"
)

// The layer drivers: every layer measured from outside, by timing calls into
// its exported functions over the same kind of generated input the workloads
// use. They run in every traced run, on inputs of fixed size, so a layer's
// number means the same on every workload. Each driver repeats its loop
// layerReps times and reports the median.

const (
	layerReps       = 9
	layerNarrowRows = 20_000
	layerEventRows  = 40_000
	layerWideRows   = 2_000
	layerBatch      = 1024
)

// layerFailure carries a driver's unexpected error up to runLayers: the
// inputs are the benchmark's own, so a failing constructor is a bug in the
// driver or the layer, not a condition to handle per call.
type layerFailure struct{ err error }

func check(err error) {
	if err != nil {
		panic(layerFailure{err})
	}
}

// timed returns the median wall time of layerReps calls of fn.
func timed(fn func()) time.Duration {
	ds := make([]float64, layerReps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

// perUnit is timed in nanoseconds per unit of work.
func perUnit(units int, fn func()) float64 {
	return ratio(float64(timed(fn)), float64(units))
}

func drain(op exec.Operator) []*vector.Vector {
	cols, err := exec.Collect(op)
	check(err)
	return cols
}

// mallocsDuring counts heap allocations made by fn.
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

type layerInputs struct {
	narrow, events, wide *gen.Dataset
	csvTab, binTab       *catalog.Table // narrow
	jsonTab              *catalog.Table // events
	dir                  string
}

// runLayers runs every driver and appends its metrics to m.
func runLayers(e *env, m *metrics) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(layerFailure)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("layer driver: %w", f.err)
		}
	}()
	in := &layerInputs{dir: filepath.Join(e.dir, "layers")}
	check(os.MkdirAll(in.dir, 0o755))
	in.narrow, err = gen.Narrow(e.rows(layerNarrowRows), e.cfg.seed)
	check(err)
	in.events, err = gen.Events(e.rows(layerEventRows), e.cfg.seed)
	check(err)
	in.wide, err = gen.Wide(e.rows(layerWideRows), e.cfg.seed)
	check(err)
	in.csvTab = in.narrow.Table("t", catalog.CSV)
	in.binTab = in.narrow.Table("t", catalog.Binary)
	in.jsonTab = in.events.Table("ev", catalog.JSON)

	in.frontEnd(m)
	in.storage(m)
	in.conversion(m)
	in.accessPaths(m)
	in.structures(m)
	in.shreds(m)
	in.operators(m)
	in.vectors(m)
	in.vaultCodec(m)
	in.datasets(m)
	in.serverWire(m)
	in.tracing(m)
	return nil
}

// frontEnd: the SQL parser over one text of every workload, and registration.
func (in *layerInputs) frontEnd(m *metrics) {
	texts := []string{
		"SELECT MAX(col11), SUM(col21), COUNT(*) FROM t WHERE col1 < 400000000",
		"SELECT MAX(payload.energy), SUM(payload.eta), COUNT(*) FROM ev WHERE run < 40",
		"SELECT MAX(col3), COUNT(*) FROM j WHERE col2 < 10000000",
		"SELECT MAX(a.col11), SUM(a.col21), COUNT(*) FROM a, b WHERE a.col1 = b.col1 AND b.col2 < 100000000",
		"SELECT run, AVG(payload.energy), COUNT(*) FROM ev GROUP BY run HAVING AVG(payload.energy) > 488281",
		"SELECT col3, COUNT(*), MAX(col4) FROM a WHERE col2 < 100000000 GROUP BY col3",
		"SELECT col1, col2 FROM t WHERE col1 < 10000000",
		"SELECT MAX(col5), SUM(col6), COUNT(*) FROM logs WHERE col1 < 500000000",
	}
	const rounds = 200
	m.add("sql.parse_us", "us", perUnit(rounds*len(texts), func() {
		for i := 0; i < rounds; i++ {
			for _, t := range texts {
				_, err := sql.Parse(t)
				check(err)
			}
		}
	})/1e3, layerReps)

	schema, evSchema := rawSchema(in.narrow.Schema), rawSchema(in.events.Schema)
	m.add("engine.register_ms", "ms", float64(timed(func() {
		eng := raw.NewEngine(raw.Config{})
		check(eng.RegisterCSVData("c", in.narrow.CSV, schema))
		check(eng.RegisterBinaryData("b", in.narrow.Bin, schema))
		check(eng.RegisterJSONData("ev", in.events.JSONL, evSchema))
	}))/1e6, layerReps)
}

// storage: the raw-byte primitives of each format.
func (in *layerInputs) storage(m *metrics) {
	csv, rows := in.narrow.CSV, in.narrow.Rows
	var sink int
	m.add("csvfile.tokenize_ns_per_field", "ns", perUnit(rows*gen.NarrowCols, func() {
		for pos := 0; pos < len(csv); {
			var end int
			_, end, pos = csvfile.FieldBounds(csv, pos)
			sink += end
		}
	}), layerReps)
	m.add("csvfile.skip_ns_per_field", "ns", perUnit(rows*gen.NarrowCols, func() {
		for pos := 0; pos < len(csv); {
			pos = csvfile.SkipFields(csv, pos, gen.NarrowCols)
		}
	}), layerReps)

	js, evRows := in.events.JSONL, in.events.Rows
	keys := 0
	walk := func() {
		keys = 0
		for pos := 0; pos < len(js); pos = jsonfile.NextRow(js, pos) {
			inner, ok := jsonfile.EnterObject(js, pos)
			if !ok {
				check(fmt.Errorf("events row at %d is not an object", pos))
			}
			for {
				_, _, _, next, done, err := jsonfile.NextMember(js, inner)
				check(err)
				if done {
					break
				}
				keys++
				inner = jsonfile.SkipValue(js, next)
			}
		}
	}
	walk()
	m.add("jsonfile.member_ns_per_key", "ns", perUnit(keys, walk), layerReps)
	path := jsonfile.SplitPath("payload.energy")
	m.add("jsonfile.findpath_ns_per_row", "ns", perUnit(evRows, func() {
		for pos := 0; pos < len(js); pos = jsonfile.NextRow(js, pos) {
			sink += jsonfile.FindPath(js, pos, path)
		}
	}), layerReps)
	m.add("jsonfile.split_us", "us", float64(timed(func() {
		sink += len(jsonfile.Split(js, 4*runtime.GOMAXPROCS(0)))
	}))/1e3, layerReps)

	r, err := binfile.NewReader(in.narrow.Bin)
	check(err)
	var isink int64
	m.add("binfile.read_ns_per_value", "ns", perUnit(rows*3, func() {
		for row := int64(0); row < int64(rows); row++ {
			isink += r.Int64At(row, 0) + r.Int64At(row, 10) + r.Int64At(row, 20)
		}
	}), layerReps)
	_, _ = sink, isink
}

// fieldBytes returns the bytes of column col of every row of a CSV image.
func fieldBytes(csv []byte, col int) [][]byte {
	var out [][]byte
	for pos := 0; pos < len(csv); pos = csvfile.SkipRow(csv, pos) {
		start, end, _ := csvfile.FieldBounds(csv, csvfile.SkipFields(csv, pos, col))
		out = append(out, csv[start:end])
	}
	return out
}

// conversion: the custom atoi/atof over the files' real field bytes — narrow
// integers; the wide table's 15-digit floats and the events' short ones.
func (in *layerInputs) conversion(m *metrics) {
	ints := fieldBytes(in.narrow.CSV, 10)
	var isink int64
	m.add("bytesconv.parse_int_ns", "ns", perUnit(len(ints), func() {
		for _, b := range ints {
			v, err := bytesconv.ParseInt64(b)
			check(err)
			isink += v
		}
	}), layerReps)
	floats := append(fieldBytes(in.wide.CSV, 1), fieldBytes(in.events.CSV, 3)...)
	var fsink float64
	m.add("bytesconv.parse_float_ns", "ns", perUnit(len(floats), func() {
		for _, b := range floats {
			v, err := bytesconv.ParseFloat64(b)
			check(err)
			fsink += v
		}
	}), layerReps)
	_, _ = isink, fsink
}

// ridChild is a scan emitting every step-th row id of an n-row table beside a
// dummy column: the input of the late scans.
func ridChild(n, step int) exec.Operator {
	val, rid := vector.New(vector.Int64, n/step+1), vector.New(vector.Int64, n/step+1)
	for r := 0; r < n; r += step {
		val.AppendInt64(int64(r))
		rid.AppendInt64(int64(r))
	}
	op, err := exec.NewMemScan(vector.Schema{{Name: "v", Type: vector.Int64},
		{Name: insitu.RowIDColumn, Type: vector.Int64}}, []*vector.Vector{val, rid}, layerBatch)
	check(err)
	return op
}

// accessPaths: the generated scans, drained with exec.Collect.
func (in *layerInputs) accessPaths(m *metrics) {
	csv, rows := in.narrow.CSV, in.narrow.Rows
	need := []int{0, 10, 20} // cold_csv's columns
	policy := posmap.Policy{EveryK: 10}
	var pm *posmap.Map
	seq := func() {
		pm = posmap.New(policy, gen.NarrowCols)
		s, err := jit.NewCSVSequentialScan(csv, in.csvTab, need, pm, false, layerBatch)
		check(err)
		drain(s)
	}
	m.add("jit.csv_seq_ns_per_row", "ns", perUnit(rows, seq), layerReps)
	m.add("jit.csv_seq_allocs_per_row", "count", ratio(float64(mallocsDuring(seq)), float64(rows)), 1)

	js, evRows := in.events.JSONL, in.events.Rows
	evNeed := []int{1, 2, 3} // cold_json's: run, payload.energy, payload.eta
	var idx *jsonidx.Index
	jseq := func() {
		idx = jsonidx.New(jsonidx.DefaultMaxBytes)
		s, err := jit.NewJSONSequentialScan(js, in.jsonTab, evNeed, idx, false, layerBatch)
		check(err)
		drain(s)
	}
	m.add("jit.json_seq_ns_per_row", "ns", perUnit(evRows, jseq), layerReps)
	m.add("jit.json_seq_allocs_per_row", "count", ratio(float64(mallocsDuring(jseq)), float64(evRows)), 1)

	// Via-map scans over the structures the sequential scans just built:
	// col12 sits one field past a tracked column; payload.energy is indexed.
	m.add("jit.csv_map_ns_per_row", "ns", perUnit(rows, func() {
		s, err := jit.NewCSVMapScan(csv, in.csvTab, []int{11}, pm, false, layerBatch)
		check(err)
		drain(s)
	}), layerReps)
	m.add("jit.json_map_ns_per_row", "ns", perUnit(evRows, func() {
		s, err := jit.NewJSONMapScan(js, in.jsonTab, []int{2}, idx, false, layerBatch)
		check(err)
		drain(s)
	}), layerReps)
	r, err := binfile.NewReader(in.narrow.Bin)
	check(err)
	m.add("jit.bin_ns_per_row", "ns", perUnit(rows, func() {
		s, err := jit.NewBinScan(r, in.binTab, need, false, layerBatch)
		check(err)
		drain(s)
	}), layerReps)
	const step = 10 // a late scan fetches a tenth of the rows
	m.add("jit.late_ns_per_row", "ns", perUnit(rows/step, func() {
		s, err := jit.NewCSVLateScan(ridChild(rows, step), csv, in.csvTab, []int{11}, pm, 1)
		check(err)
		drain(s)
	}), layerReps)
}

// structures: positional map, structural index and zone maps on their own.
func (in *layerInputs) structures(m *metrics) {
	rows := in.narrow.Rows
	policy := posmap.Policy{EveryK: 10}
	offsets := make([]int64, len(policy.Columns(gen.NarrowCols)))
	var pm *posmap.Map
	m.add("posmap.append_ns_per_row", "ns", perUnit(rows, func() {
		pm = posmap.New(policy, gen.NarrowCols)
		for r := 0; r < rows; r++ {
			for i := range offsets {
				offsets[i] = int64(r*300 + i*100)
			}
			pm.AppendRow(offsets)
		}
	}), layerReps)
	var sink int64
	m.add("posmap.lookup_ns", "ns", perUnit(rows, func() {
		for r := int64(0); r < int64(rows); r++ {
			pos, skip, _ := pm.Lookup(r, 11)
			sink += pos + int64(skip)
		}
	}), layerReps)
	m.add("posmap.bytes_per_row", "B", ratio(float64(pm.MemoryFootprint()), float64(rows)), 1)

	evRows := in.events.Rows
	paths := []string{"payload.energy", "payload.eta"}
	record := func(n int) *jsonidx.Index {
		idx := jsonidx.New(jsonidx.DefaultMaxBytes)
		rec := idx.Record(paths)
		offs := make([]int64, len(paths))
		for r := 0; r < n; r++ {
			offs[0], offs[1] = int64(r*110+40), int64(r*110+70)
			rec.AppendRow(int64(r*110), offs)
		}
		rec.Commit()
		return idx
	}
	var idx *jsonidx.Index
	m.add("jsonidx.record_ns_per_row", "ns", perUnit(evRows, func() { idx = record(evRows) }), layerReps)
	m.add("jsonidx.bytes_per_row", "B", ratio(float64(idx.MemoryFootprint()), float64(evRows)), 1)
	const frags = 4
	parts, offs := make([]*jsonidx.Index, frags), make([]int64, frags)
	for i := range parts {
		parts[i], offs[i] = record(evRows/frags), int64(i*(evRows/frags)*110)
	}
	m.add("jsonidx.merge_ms", "ms", float64(timed(func() {
		sink += jsonidx.Merge(parts, offs, jsonidx.DefaultMaxBytes).NRows()
	}))/1e6, layerReps)

	var syn *synopsis.Synopsis
	m.add("synopsis.build_ns_per_row", "ns", perUnit(rows, func() {
		b := synopsis.NewBuilder(0, map[int]vector.Type{0: vector.Int64, 10: vector.Int64})
		a0, a10 := b.Acc(0), b.Acc(10)
		for r := 0; r < rows; r++ {
			a0.ObserveInt64(int64(r))
			a10.ObserveInt64(int64(r * 7 % 1000))
			if r%layerBatch == layerBatch-1 {
				b.Advance(layerBatch)
			}
		}
		b.Advance(int64(rows % layerBatch))
		syn = b.Finish()
	}), layerReps)
	bounds := syn.Bounds()
	pred := exec.Pred{Col: 0, Op: exec.Lt, I64: int64(rows / 10)}
	const rounds = 200
	excluded := 0
	m.add("synopsis.exclude_ns_per_block", "ns", perUnit(rounds*(len(bounds)-1), func() {
		for i := 0; i < rounds; i++ {
			for b := 0; b+1 < len(bounds); b++ {
				if syn.Excludes(pred, bounds[b], bounds[b+1]) {
					excluded++
				}
			}
		}
	}), layerReps)
	_ = sink
}

// intColumns returns n-row int64 vectors: a row counter, uniform values and a
// key with the given number of distinct values.
func intColumns(n, distinct int) (seqCol, val, key *vector.Vector) {
	seqCol, val, key = vector.New(vector.Int64, n), vector.New(vector.Int64, n), vector.New(vector.Int64, n)
	x := uint64(88172645463325252)
	for r := 0; r < n; r++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		seqCol.AppendInt64(int64(r))
		val.AppendInt64(int64(x % uint64(gen.ValueRange)))
		key.AppendInt64(int64(x>>32) % int64(distinct))
	}
	return seqCol, val, key
}

func memScan(names []string, cols ...*vector.Vector) exec.Operator {
	schema := make(vector.Schema, len(cols))
	for i, c := range cols {
		schema[i] = vector.Col{Name: names[i], Type: c.Type}
	}
	op, err := exec.NewMemScan(schema, cols, layerBatch)
	check(err)
	return op
}

// shreds: capture into the pool, and the two ways back out of it.
func (in *layerInputs) shreds(m *metrics) {
	rows := in.narrow.Rows
	_, a, b := intColumns(rows, 100)
	names := []string{"a", "b"}
	var pool *shred.Pool
	m.add("shred.capture_ns_per_row", "ns", perUnit(rows, func() {
		pool = shred.NewPool(1 << 30)
		c, err := shred.NewCapture(memScan(names, a, b), pool, []shred.CaptureSpec{
			{Key: shred.Key{Table: "t", Col: 0}, ColIdx: 0, RIDIdx: -1},
			{Key: shred.Key{Table: "t", Col: 1}, ColIdx: 1, RIDIdx: -1}})
		check(err)
		drain(c)
	}), layerReps)
	cached := []*shred.Shred{pool.LookupFull(shred.Key{Table: "t", Col: 0}), pool.LookupFull(shred.Key{Table: "t", Col: 1})}
	if cached[0] == nil || cached[1] == nil {
		check(fmt.Errorf("capture published no full-column shreds"))
	}
	m.add("shred.scan_ns_per_row", "ns", perUnit(rows, func() {
		s, err := shred.NewScan(cached, names, false, layerBatch)
		check(err)
		drain(s)
	}), layerReps)
	const step = 10
	m.add("shred.late_ns_per_row", "ns", perUnit(rows/step, func() {
		s, err := shred.NewLateScan(ridChild(rows, step), 1, cached, names)
		check(err)
		drain(s)
	}), layerReps)
}

// operators: the relational operators over in-memory columns.
func (in *layerInputs) operators(m *metrics) {
	const n = 200_000
	seqCol, val, key := intColumns(n, 100)
	fl := vector.New(vector.Float64, n)
	for _, v := range val.Int64s {
		fl.AppendFloat64(float64(v) / 1024)
	}
	names := []string{"k", "v"}
	m.add("exec.filter_ns_per_row", "ns", perUnit(n, func() {
		f, err := exec.NewFilter(memScan(names, seqCol, val), []exec.Pred{{Col: 1, Op: exec.Lt, I64: gen.Threshold(0.4)}})
		check(err)
		drain(f)
	}), layerReps)
	m.add("exec.agg_ns_per_row", "ns", perUnit(n, func() {
		a, err := exec.NewAggregate(memScan(names, seqCol, val),
			[]exec.AggSpec{{Func: exec.Max, Col: 1}, {Func: exec.Sum, Col: 1}, {Func: exec.Count, Col: -1}}, nil)
		check(err)
		drain(a)
	}), layerReps)
	m.add("exec.groupby_ns_per_row", "ns", perUnit(n, func() {
		a, err := exec.NewAggregate(memScan(names, key, val), []exec.AggSpec{{Func: exec.Sum, Col: 1}}, []int{0})
		check(err)
		drain(a)
	}), layerReps)
	m.add("exec.fsum_ns_per_value", "ns", perUnit(n, func() {
		a, err := exec.NewAggregate(memScan(names, key, fl), []exec.AggSpec{{Func: exec.Sum, Col: 1}}, nil)
		check(err)
		drain(a)
	}), layerReps)

	// The shared build runs once, on the first probe to open; a one-row probe
	// times it alone, a full probe then times probing.
	workers := runtime.GOMAXPROCS(0)
	one := vector.New(vector.Int64, 1)
	one.AppendInt64(0)
	var build *exec.SharedBuild
	m.add("exec.join_build_ns_per_row", "ns", perUnit(n, func() {
		var err error
		build, err = exec.NewSharedBuild(memScan(names, seqCol, val), 0, workers)
		check(err)
		p, err := exec.NewHashProbe(memScan(names[:1], one), build, 0)
		check(err)
		drain(p)
	}), layerReps)
	m.add("exec.join_probe_ns_per_row", "ns", perUnit(n, func() {
		p, err := exec.NewHashProbe(memScan(names, seqCol, val), build, 0)
		check(err)
		drain(p)
	}), layerReps)

	const parts = 8
	m.add("exec.exchange_us_per_batch", "us", perUnit(n/layerBatch, func() {
		ops := make([]exec.Operator, parts)
		for i := range ops {
			lo, hi := i*n/parts, (i+1)*n/parts
			ops[i] = memScan(names, seqCol.Slice(lo, hi), val.Slice(lo, hi))
		}
		p, err := exec.NewParallel(ops, workers, layerBatch, nil)
		check(err)
		drain(p)
	})/1e3, layerReps)
}

// vectors: applying a selection vector and gathering by index.
func (in *layerInputs) vectors(m *metrics) {
	_, a, b := intColumns(layerBatch, 100)
	batch := &vector.Batch{Cols: []*vector.Vector{a, b}}
	for r := 0; r < layerBatch; r += 2 {
		batch.Sel = append(batch.Sel, int32(r))
	}
	const rounds = 2000
	var dst *vector.Batch
	m.add("vector.compact_ns_per_row", "ns", perUnit(rounds*len(batch.Sel), func() {
		for i := 0; i < rounds; i++ {
			batch.Compact(&dst)
		}
	}), layerReps)
	out := vector.New(vector.Int64, layerBatch)
	m.add("vector.gather_ns_per_row", "ns", perUnit(rounds*len(batch.Sel), func() {
		for i := 0; i < rounds; i++ {
			out.Reset()
			out.Gather(a, batch.Sel)
		}
	}), layerReps)
}

// vaultCodec: the persistent encodings, and the first query after a restart
// on a warm CacheDir.
func (in *layerInputs) vaultCodec(m *metrics) {
	rows := in.narrow.Rows
	_, a, b := intColumns(rows, 100)
	fp := vault.DataFingerprint(in.narrow.CSV)
	shreds := []vault.TableShred{{Col: 0, Vec: a}, {Col: 1, Vec: b}}
	pm := posmap.New(posmap.Policy{EveryK: 10}, gen.NarrowCols)
	s, err := jit.NewCSVSequentialScan(in.narrow.CSV, in.csvTab, []int{0}, pm, false, layerBatch)
	check(err)
	drain(s)
	var encShreds, encMap []byte
	enc := timed(func() {
		encShreds = vault.EncodeShreds(fp, shreds)
		encMap = vault.EncodePosMap(fp, pm)
	})
	mb := float64(len(encShreds)+len(encMap)) / (1 << 20)
	m.add("vault.encode_mb_per_s", "MB/s", ratio(mb, enc.Seconds()), layerReps)
	dec := timed(func() {
		_, _, err := vault.DecodeShreds(encShreds)
		check(err)
		_, _, err = vault.DecodePosMap(encMap)
		check(err)
	})
	m.add("vault.decode_mb_per_s", "MB/s", ratio(mb, dec.Seconds()), layerReps)

	path, cache := filepath.Join(in.dir, "restart.csv"), filepath.Join(in.dir, "restart-vault")
	check(os.WriteFile(path, in.narrow.CSV, 0o644))
	schema := rawSchema(in.narrow.Schema)
	query := fmt.Sprintf("SELECT MAX(col11), COUNT(*) FROM t WHERE col1 < %d", gen.Threshold(0.1))
	life := func() time.Duration {
		eng := raw.NewEngine(raw.Config{CacheDir: cache})
		check(eng.RegisterCSV("t", path, schema))
		start := time.Now()
		_, err := eng.Query(query)
		d := time.Since(start)
		check(err)
		eng.FlushVault()
		check(eng.Close())
		return d
	}
	life() // cold: fills the vault
	warm := make([]float64, layerReps)
	for i := range warm {
		warm[i] = float64(life()) / 1e6
	}
	m.add("vault.restart_first_query_ms", "ms", median(warm), layerReps)
}

// datasets: manifest discovery, and its refresh at the start of every query.
func (in *layerInputs) datasets(m *metrics) {
	dir := filepath.Join(in.dir, "parts")
	check(os.MkdirAll(dir, 0o755))
	for i, chunk := range gen.SplitRows(in.narrow.CSV, 8) {
		check(os.WriteFile(filepath.Join(dir, fmt.Sprintf("part-%02d.csv", i)), chunk, 0o644))
	}
	m.add("dataset.discover_us", "us", float64(timed(func() {
		_, err := dataset.Discover(dir, dataset.AutoFormat)
		check(err)
	}))/1e3, layerReps)
	eng := raw.NewEngine(raw.Config{})
	check(eng.RegisterDataset("logs", dir, rawSchema(in.narrow.Schema)))
	const queries = 60
	refresh := make(durations, queries)
	for i := range refresh {
		res, err := eng.Query("SELECT MAX(col5), COUNT(*) FROM logs WHERE col1 < 500000000")
		check(err)
		refresh[i] = res.Stats.ManifestRefresh
	}
	check(eng.Close())
	m.add("dataset.refresh_us_p50", "us", median(refresh.in(time.Microsecond)), queries)
}

// serverWire: what the wire adds to a query — a client round trip minus the
// in-process Server.Execute of the same text.
func (in *layerInputs) serverWire(m *metrics) {
	eng := raw.NewEngine(raw.Config{})
	check(eng.RegisterCSVData("t", in.narrow.CSV, rawSchema(in.narrow.Schema)))
	ep, err := listen(eng)
	check(err)
	defer func() {
		check(ep.stop())
		check(eng.Close())
	}()
	lt := gen.Threshold(0.05) // a twentieth of the rows come back
	agg := fmt.Sprintf("SELECT MAX(col11), COUNT(*) FROM t WHERE col1 < %d", lt)
	rowsQ := fmt.Sprintf("SELECT col1, col2 FROM t WHERE col1 < %d", lt)
	const trips = 200
	inproc := func(q string) (float64, int) {
		d, n := make(durations, trips), 0
		for i := range d {
			start := time.Now()
			res, err := ep.srv.Execute(context.Background(), q)
			d[i] = time.Since(start)
			check(err)
			n = res.NumRows()
		}
		return median(d.in(time.Microsecond)), n
	}
	wire := func(session int, q string) float64 {
		c, err := ep.dial(session)
		check(err)
		defer c.close()
		d := make(durations, trips)
		for i := range d {
			start := time.Now()
			_, err := c.query(q)
			d[i] = time.Since(start)
			check(err)
		}
		return median(d.in(time.Microsecond))
	}
	inproc(agg) // builds the shreds; everything after runs warm
	inproc(rowsQ)
	base, _ := inproc(agg)
	m.add("server.line_overhead_us", "us", wire(0, agg)-base, trips)
	m.add("server.http_overhead_us", "us", wire(1, agg)-base, trips)
	rowsBase, n := inproc(rowsQ)
	m.add("server.wire_us_per_krow", "us", ratio(wire(0, rowsQ)-rowsBase, float64(n)/1000), trips)
}

// tracing: the same hot query with and without Options.Trace, alternating.
func (in *layerInputs) tracing(m *metrics) {
	eng := raw.NewEngine(raw.Config{})
	check(eng.RegisterCSVData("t", in.narrow.CSV, rawSchema(in.narrow.Schema)))
	query := fmt.Sprintf("SELECT MAX(col11), COUNT(*) FROM t WHERE col1 < %d", gen.Threshold(0.4))
	const pairs = 300
	plain, traced := make(durations, pairs), make(durations, pairs)
	run := func(opts raw.Options) time.Duration {
		start := time.Now()
		_, err := eng.QueryOpt(query, opts)
		check(err)
		return time.Since(start)
	}
	run(raw.Options{}) // builds the shreds
	for i := 0; i < pairs; i++ {
		plain[i] = run(raw.Options{})
		traced[i] = run(raw.Options{Trace: raw.NewTrace()})
	}
	check(eng.Close())
	m.add("obs.trace_overhead_pct", "%",
		100*(ratio(median(traced.in(time.Microsecond)), median(plain.in(time.Microsecond)))-1), pairs)
}
