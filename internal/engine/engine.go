// Package engine implements the RAW query engine: it turns SQL into physical
// plans over raw files, choosing access paths per query exactly as the paper
// describes — consulting the catalog, the positional maps and the pool of
// cached column shreds, then generating (via package jit) file- and
// query-specific scan operators and linking them with the vectorized
// relational operators of package exec.
//
// The engine also implements the paper's comparison points as strategies:
// a load-first DBMS, external tables, and generic (NoDB-style) in-situ scans,
// so every experiment in the evaluation section runs through one code base.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rawdb/internal/budget"
	"rawdb/internal/catalog"
	"rawdb/internal/obs"
	"rawdb/internal/posmap"
	"rawdb/internal/shred"
	"rawdb/internal/storage/rawfile"
	"rawdb/internal/vault"
	"rawdb/internal/vector"
)

// Strategy selects how queries access raw data.
type Strategy uint8

// Strategies. The zero value is StrategyShreds, the full RAW design.
const (
	// StrategyShreds is RAW proper: JIT access paths plus column shreds
	// (scan operators pushed above filters/joins) and the shred cache.
	StrategyShreds Strategy = iota
	// StrategyJIT uses JIT access paths with full columns (every needed
	// column materialised at the base scan).
	StrategyJIT
	// StrategyInSitu is the NoDB baseline: general-purpose scans with
	// positional maps, full columns.
	StrategyInSitu
	// StrategyExternal re-parses the whole file per query (external tables).
	StrategyExternal
	// StrategyDBMS loads the entire table into memory on first touch and
	// queries the loaded columns thereafter.
	StrategyDBMS
)

// String returns the experiment label of the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyShreds:
		return "shreds"
	case StrategyJIT:
		return "jit"
	case StrategyInSitu:
		return "insitu"
	case StrategyExternal:
		return "external"
	case StrategyDBMS:
		return "dbms"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// JoinPlacement selects where columns projected through a join are created
// (Section 5.3.2 of the paper).
type JoinPlacement uint8

// Join placements for the projected column.
const (
	// PlaceLate creates the column after the join (column shreds).
	PlaceLate JoinPlacement = iota
	// PlaceEarly creates the column at the base scan (full columns).
	PlaceEarly
	// PlaceIntermediate creates the column after local filters but before
	// the join (only distinct from PlaceEarly on the build side).
	PlaceIntermediate
)

// String returns the experiment label of the placement.
func (p JoinPlacement) String() string {
	switch p {
	case PlaceLate:
		return "late"
	case PlaceEarly:
		return "early"
	case PlaceIntermediate:
		return "intermediate"
	default:
		return fmt.Sprintf("JoinPlacement(%d)", uint8(p))
	}
}

// Config sets engine-wide defaults; Options can override them per query.
type Config struct {
	// Strategy is the default access strategy (StrategyShreds).
	Strategy Strategy
	// PosMapPolicy selects which CSV columns positional maps track. The
	// zero policy tracks every 10th column plus every query-filter column,
	// mirroring the paper's heuristics.
	PosMapPolicy posmap.Policy
	// BatchSize is the vector size exchanged between operators.
	BatchSize int
	// Parallelism is the number of worker goroutines eligible queries fan
	// out over (morsel-driven parallel scans). Values <= 1 keep every query
	// on the one-part plan; see planCtx.decide for the fallback rules.
	Parallelism int
	// DisableShredCache turns off shred capture and reuse (the paper's
	// figures 5-12 cold second queries are run with a pinned cache state
	// instead; tests use this for isolation).
	DisableShredCache bool
	// JoinPlacement is the default placement of join-projected columns.
	JoinPlacement JoinPlacement
	// MultiColumnShreds fetches all late columns of a table with one
	// operator pass (speculative multi-column shreds, Figure 9) instead of
	// one operator per column.
	MultiColumnShreds bool
	// CacheDir, when non-empty, enables the persistent raw-data vault:
	// positional maps, structural indexes and column shreds are written back
	// to <CacheDir>/<table>/*.rawv after queries and loaded on Register*, so
	// the first query after a restart runs against the cache state earlier
	// processes built. Entries are fingerprint-validated against the raw
	// file; deleting or corrupting the directory is always safe (cold
	// rebuild).
	CacheDir string
	// CacheBudget bounds the total in-memory bytes of positional maps,
	// structural indexes, synopses and column shreds with one LRU budget;
	// values <= 0 select 256 MiB. Only a value > 0 turns on the server's
	// memory governor (CacheBudgetUsage reports it as the capacity).
	CacheBudget int64
	// DisablePushdown keeps every WHERE conjunct in a separate Filter
	// operator instead of absorbing eligible ones into the generated access
	// paths (A/B comparisons, differential testing). Pushdown is on by
	// default for the JIT strategies.
	DisablePushdown bool
	// DisableZoneMaps turns off building and consulting the per-block
	// min/max synopses that let warm scans and the parallel planner skip
	// blocks and morsels a predicate excludes.
	DisableZoneMaps bool
	// SynopsisBlockRows overrides the zone-map block granularity (default
	// synopsis.DefaultBlockRows); tests use small blocks to exercise
	// skipping on small files.
	SynopsisBlockRows int
	// OnEvent, when non-nil, receives every adaptive-structure lifecycle
	// event (captured / restored / evicted / invalidated) as it happens, in
	// addition to the engine's bounded in-memory event log.
	OnEvent func(obs.Event)
	// QueryLog, when non-nil, receives one structured JSON record per query
	// at completion (obs.NewQueryLog / obs.OpenQueryLog). A nil log costs one
	// pointer compare per query.
	QueryLog *obs.QueryLog
	// SlowQueryMillis, when > 0, arms the slow-query path: every query gets
	// a trace attached (unless the caller supplied one), and queries slower
	// than the threshold carry their full rendered span tree in the query-log
	// record. Requires QueryLog.
	SlowQueryMillis int
}

// Options overrides Config for a single query. Nil pointers inherit.
type Options struct {
	Strategy          *Strategy
	JoinPlacement     *JoinPlacement
	MultiColumnShreds *bool
	// Parallelism overrides Config.Parallelism for this query (<= 1 forces
	// the serial plan).
	Parallelism *int
	// Pushdown overrides predicate pushdown for this query (true enables,
	// false forces every predicate into Filter operators).
	Pushdown *bool
	// ZoneMaps overrides zone-map pruning for this query.
	ZoneMaps *bool
	// Trace, when non-nil, collects operator- and phase-level spans for this
	// query (obs.NewTrace()). A nil Trace plans the exact untraced operator
	// tree: span wrapping happens at plan time only when a trace is present,
	// so disabled tracing costs nothing on the scan hot paths.
	Trace *obs.Trace
	// NoCapture, when true, stops this query from building or publishing any
	// new adaptive structure (positional map, structural index, synopsis,
	// shred). Everything already cached is still reused. This is the memory
	// governor's degraded mode: under budget pressure the server admits
	// queries read-only rather than rejecting them outright.
	NoCapture *bool
}

// Engine is a RAW query engine instance.
type Engine struct {
	cfg     Config
	cat     *catalog.Catalog
	shreds  *shred.Pool
	vault   *vault.Store // nil unless Config.CacheDir is set (and usable)
	budget  *budget.Budget
	metrics *obs.Registry
	events  *obs.EventLog
	heat    *obs.Heat
	// queryID hands out the monotonic per-engine query IDs stamped on
	// traces, events and query-log records; inflight tracks the queries
	// currently between admission and completion (see record.go).
	queryID  atomic.Int64
	inflight inflightSet
	// vaultIO tracks in-flight asynchronous vault writer goroutines. It is a
	// counter + condvar rather than a sync.WaitGroup because queries add
	// writers concurrently with FlushVault/Close waiting (WaitGroup forbids
	// Add-while-Wait; the tracker just waits until the count drains to zero).
	vaultIO ioTracker
	mapped  atomic.Int64 // bytes of raw files mapped (raw.mapped_bytes)

	mu     sync.Mutex
	tables map[string]*tableState
}

// tableState is the engine-side state of one registered table.
type tableState struct {
	// qmu is the per-table query lock, held in phases rather than across a
	// whole query: planning holds it (reading a consistent snapshot of the
	// caches and the dataset partition list), execution releases it (operators
	// run against immutable snapshots or internally locked state, so read-only
	// queries over the same table overlap), and publication re-acquires it (the
	// deferred hooks install freshly built structures, vault write-backs are
	// scheduled).
	qmu sync.Mutex
	tab *catalog.Table
	// src is the table's input plug-in (source.go), resolved at registration;
	// it owns the raw image. nil for memory tables and dataset parents.
	src    source
	loaded []*vector.Vector // DBMS-loaded full columns
	nrows  int64            // -1 until known
	// resident says the raw backing is in memory. The image belongs to the
	// query holding qmu; admission (EstimateQueryBytes) reads only this.
	resident atomic.Bool
	// ident is the identity of the file a plain path table's caches describe
	// (planCtx.open); dropped: DropTable removed the table.
	ident   rawfile.Identity
	dropped bool
	// expectSize, for dataset partitions, is the file size the manifest
	// recorded at refresh. A load observing different bytes means the file
	// changed after refresh (sheared mid-query) — see loadPartChecked.
	expectSize int64

	// pos and syn are the table's cached structures (vault.go): the
	// positional structure its plug-in builds, and its zone-map synopsis.
	// saves orders them the way the vault writes them.
	pos, syn slot
	saves    [2]*slot

	// Vault state (guarded by qmu, like the caches themselves): the raw
	// file fingerprint entries are saved under, and the shred-pool version
	// the vault writer last took.
	fp       vault.Fingerprint
	hasFP    bool
	shredVer int64
	// wmu serialises this table's disk writes; it is locked by the
	// completing query (preserving save order) and unlocked by the
	// asynchronous writer goroutine.
	wmu sync.Mutex

	// ds is non-nil for dataset parents: one logical table over a directory
	// of raw files. Partition states (one tableState each, never registered
	// in the catalog) hang off it and are guarded by the parent's qmu; see
	// dataset.go.
	ds *datasetState
}

// learnRows records a text table's row count from a scan that visited every
// row. Only publication calls it: no query counts, a failed one leaves -1.
func (st *tableState) learnRows(rows int64) {
	if st.nrows < 0 && rows > 0 {
		st.nrows = rows
	}
}

// slots returns the table's slots: the positional structure first, whose
// rows the synopsis is checked against.
func (st *tableState) slots() [2]*slot { return [2]*slot{&st.pos, &st.syn} }

// family yields st and, for a dataset parent, each of its partitions.
func (st *tableState) family(yield func(*tableState) bool) {
	if yield(st) && st.ds != nil {
		for _, ps := range st.ds.parts {
			if !yield(ps) {
				return
			}
		}
	}
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = vector.DefaultBatchSize
	}
	if cfg.PosMapPolicy.EveryK == 0 && len(cfg.PosMapPolicy.Extra) == 0 {
		cfg.PosMapPolicy = posmap.Policy{EveryK: 10}
	}
	e := &Engine{
		cfg:    cfg,
		cat:    catalog.New(),
		shreds: shred.NewPool(cfg.CacheBudget),
		tables: make(map[string]*tableState),
	}
	e.budget = e.shreds.Budget()
	if cfg.CacheDir != "" {
		// The vault is a cache: if the directory cannot be created the
		// engine degrades to purely in-memory operation rather than failing.
		if s, err := vault.Open(cfg.CacheDir); err == nil {
			e.vault = s
		}
	}
	e.initObs()
	if e.vault != nil {
		// Corrupt vault entries are deleted on discovery and the structure
		// rebuilds cold from the raw file; the degradation is transparent to
		// the query, so the trace lives here — a counter plus a lifecycle
		// event naming the table and structure kind.
		e.vault.OnQuarantine(func(table string, kind vault.Kind, reason string) {
			e.metrics.Counter("vault.quarantined").Inc()
			e.emitEvent(0, obs.EventQuarantined, kind.String(), table, 0, reason)
		})
	}
	return e
}

// Catalog exposes the engine's catalog (read-mostly; use the Register
// helpers to add tables).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// ShredPool exposes the column-shred pool for inspection.
func (e *Engine) ShredPool() *shred.Pool { return e.shreds }

// Budget exposes the cache budget, shared by the table slots and the shred
// pool.
func (e *Engine) Budget() *budget.Budget { return e.budget }

// Vault exposes the persistent cache store (nil unless Config.CacheDir is
// set and usable).
func (e *Engine) Vault() *vault.Store { return e.vault }

// RegisterCSV registers a CSV file under name. Registration stores metadata
// only; the file is read lazily on first query (in-situ semantics).
func (e *Engine) RegisterCSV(name, path string, schema []catalog.Column) error {
	return e.registerRaw(&catalog.Table{Name: name, Path: path, Format: catalog.CSV, Schema: schema}, nil)
}

// RegisterCSVData registers an in-memory CSV image (tests, benchmarks).
func (e *Engine) RegisterCSVData(name string, data []byte, schema []catalog.Column) error {
	return e.registerRaw(&catalog.Table{Name: name, Format: catalog.CSV, Schema: schema}, present(data))
}

// RegisterJSON registers a newline-delimited JSON file under name. The
// schema is partial: columns name the dotted paths queries touch (e.g.
// "payload.energy"), out of possibly many more members in each object.
func (e *Engine) RegisterJSON(name, path string, schema []catalog.Column) error {
	return e.registerRaw(&catalog.Table{Name: name, Path: path, Format: catalog.JSON, Schema: schema}, nil)
}

// RegisterJSONData registers an in-memory JSONL image (tests, benchmarks).
func (e *Engine) RegisterJSONData(name string, data []byte, schema []catalog.Column) error {
	return e.registerRaw(&catalog.Table{Name: name, Format: catalog.JSON, Schema: schema}, present(data))
}

// RegisterBinary registers a fixed-width binary file under name.
func (e *Engine) RegisterBinary(name, path string, schema []catalog.Column) error {
	return e.registerRaw(&catalog.Table{Name: name, Path: path, Format: catalog.Binary, Schema: schema}, nil)
}

// RegisterBinaryData registers an in-memory binary image.
func (e *Engine) RegisterBinaryData(name string, data []byte, schema []catalog.Column) error {
	return e.registerRaw(&catalog.Table{Name: name, Format: catalog.Binary, Schema: schema}, present(data))
}

// RegisterRoot registers one tree of a ROOT-like file as a table. The schema
// may be partial: only the branches named in it are visible to queries.
func (e *Engine) RegisterRoot(name, path, tree string, schema []catalog.Column) error {
	return e.registerRaw(&catalog.Table{Name: name, Path: path, Format: catalog.Root, Tree: tree, Schema: schema}, nil)
}

// RegisterRootData registers one tree of an in-memory ROOT-like image.
func (e *Engine) RegisterRootData(name string, data []byte, tree string, schema []catalog.Column) error {
	return e.registerRaw(&catalog.Table{Name: name, Format: catalog.Root, Tree: tree, Schema: schema}, present(data))
}

// RegisterMemory registers a fully materialised in-memory table. Memory
// tables let multi-stage analyses feed the result of one query into the next
// (the Higgs use case joins staged aggregates against raw tables).
func (e *Engine) RegisterMemory(name string, schema []catalog.Column, cols []*vector.Vector) error {
	if len(schema) != len(cols) {
		return fmt.Errorf("engine: %d schema columns for %d vectors", len(schema), len(cols))
	}
	n := -1
	for i, c := range cols {
		if c.Type != schema[i].Type {
			return fmt.Errorf("engine: column %q type mismatch", schema[i].Name)
		}
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return fmt.Errorf("engine: ragged columns in memory table %q", name)
		}
	}
	st := &tableState{loaded: cols, nrows: int64(n)}
	return e.register(&catalog.Table{Name: name, Format: catalog.Memory, Schema: schema}, st)
}

// RegisterResult registers a previous query result as an in-memory table.
// names renames the result columns (aggregate outputs like "COUNT(*)" are
// not valid column names); pass nil to keep them.
func (e *Engine) RegisterResult(name string, res *Result, names []string) error {
	if names == nil {
		names = res.Columns
	}
	if len(names) != len(res.cols) {
		return fmt.Errorf("engine: %d names for %d result columns", len(names), len(res.cols))
	}
	schema := make([]catalog.Column, len(names))
	for i, n := range names {
		schema[i] = catalog.Column{Name: n, Type: res.Types[i]}
	}
	return e.RegisterMemory(name, schema, res.cols)
}

// DropTable removes a table (commonly a staged memory table) from the
// engine, releasing every cache structure accounted to it — positional map,
// structural index, synopsis and column shreds, and for dataset parents the
// same per partition — so the unified budget retains no bytes for a dropped
// table and no file stays mapped. The persistent vault is left alone: it is a
// fingerprint-validated cache, and a re-registration may reuse it.
func (e *Engine) DropTable(name string) error {
	if err := e.cat.Drop(name); err != nil {
		return err
	}
	e.mu.Lock()
	st := e.tables[name]
	delete(e.tables, name)
	e.mu.Unlock()
	if st != nil {
		st.qmu.Lock()
		st.dropped = true
		for s := range st.family {
			e.dropState(0, s, "dropped")
		}
		st.qmu.Unlock()
	}
	return nil
}

// present makes a registered in-memory image non-nil: that marks it resident,
// however short (an empty file).
func present(data []byte) []byte {
	if data == nil {
		return []byte{}
	}
	return data
}

// registerRaw registers a table over one raw file: path-backed (data nil,
// read lazily by the first query) or an in-memory image, which is parsed now
// so that a bad one fails here.
func (e *Engine) registerRaw(tab *catalog.Table, data []byte) error {
	src := newSource(tab.Format, e.cfg.PosMapPolicy, data, &e.mapped)
	if data != nil {
		if err := src.load(tab); err != nil {
			return err
		}
	}
	st := &tableState{src: src}
	st.ident, _ = rawfile.Stat(tab.Path)
	return e.register(tab, st)
}

func (e *Engine) register(tab *catalog.Table, st *tableState) error {
	if err := e.cat.Register(tab); err != nil {
		return err
	}
	if st.src != nil {
		_, st.nrows = st.src.stat()
	}
	st.bind(tab)
	// Warm the table from the vault before it becomes queryable: valid
	// entries restore the positional map / structural index and re-seed the
	// shred pool, so the first query after a restart plans against them.
	e.vaultLoad(st)
	e.mu.Lock()
	e.tables[tab.Name] = st
	e.mu.Unlock()
	return nil
}

// tableStates returns the registered tables' states.
func (e *Engine) tableStates() []*tableState {
	e.mu.Lock()
	defer e.mu.Unlock()
	sts := make([]*tableState, 0, len(e.tables))
	for _, st := range e.tables {
		sts = append(sts, st)
	}
	return sts
}

// state returns the engine state for a table; plans map its file (open).
func (e *Engine) state(name string) (*tableState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return st, nil
}

// loadTableData maps a table's raw file if it is not present yet (in-situ
// semantics: registration recorded metadata only).
func loadTableData(st *tableState) error {
	if st.resident.Load() {
		return nil
	}
	if st.src != nil {
		if err := st.src.load(st.tab); err != nil {
			return err
		}
		if _, rows := st.src.stat(); rows >= 0 {
			st.nrows = rows
		}
	}
	st.resident.Store(true)
	return nil
}

// unload retires a path-backed table's image; the next plan maps it again.
func (st *tableState) unload() {
	if st.src != nil && st.tab.Path != "" {
		st.src.release()
		st.resident.Store(false)
	}
}

// DropCaches clears all query-derived state — positional maps, column
// shreds, zone maps, loaded DBMS columns — to simulate a cold first query.
// Raw images stay, mapped files too (the paper's cold runs also re-read files
// through the OS cache; I/O is outside our model, see DESIGN.md).
func (e *Engine) DropCaches() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.shreds.Reset()
	e.budget.Reset()
	for _, st := range e.tables {
		for s := range st.family {
			resetStateCaches(s)
		}
	}
}

// resetStateCaches clears one table state's query-derived structures (the
// DropCaches per-table body; raw images stay).
func resetStateCaches(st *tableState) {
	if st.tab.Format == catalog.Memory {
		return // memory tables have no raw backing to re-read
	}
	for _, s := range st.slots() {
		s.set(nil)
		s.markSaved(nil)
	}
	st.shredVer = 0
	st.loaded = nil
	st.nrows = -1
	if st.src != nil {
		_, st.nrows = st.src.stat()
	}
}

// Stats describes how one query executed.
type Stats struct {
	Strategy Strategy
	Elapsed  time.Duration
	// QueryID is the engine-assigned monotonic query ID, matching the IDs on
	// traces, lifecycle events and query-log records.
	QueryID int64
	// Phase durations: the engine breaks Elapsed (plus the parse/analyze
	// work that precedes it) into parse, analyze, plan, execute and publish.
	PhaseParse, PhaseAnalyze, PhasePlan, PhaseExec, PhasePublish time.Duration
	// ManifestRefresh is the time spent re-discovering dataset directories
	// before planning (zero for queries touching no path-backed dataset).
	// It is reported separately from Elapsed, which covers planning and
	// execution only.
	ManifestRefresh time.Duration
	// AccessPaths lists one label per scan operator, e.g. "jit:seq(t)",
	// "shred:late(t.col11)".
	AccessPaths []string
	// ShredHits counts columns served from the shred pool.
	ShredHits int
	// LoadedTables lists tables loaded (DBMS strategy) during this query.
	LoadedTables []string
	// RowsOut is the number of result rows.
	RowsOut int
	// PredsPushed counts the WHERE conjuncts absorbed into generated access
	// paths (no separate Filter evaluation for them).
	PredsPushed int
	// RowsPruned counts rows eliminated inside scans by pushed-down
	// predicates: short-circuited mid-row (sequential paths) or deselected
	// vectorized (via-map/direct paths), including rows inside zone-map-
	// skipped blocks.
	RowsPruned int64
	// BlocksSkipped counts batch ranges scans skipped wholesale via zone
	// maps: a raw-file scan touches none of their bytes, a scan over cached
	// columns reads none of their values and writes none of their row ids.
	BlocksSkipped int64
	// MorselsSkipped counts whole morsels the parallel planner excluded via
	// zone maps before dispatching them to workers.
	MorselsSkipped int
	// PartitionsScanned counts dataset partitions the planner opened.
	PartitionsScanned int
	// PartitionsSkipped counts dataset partitions the planner excluded
	// wholesale — a partition's zone-map synopsis proved no row can match a
	// predicate, so its file was never opened.
	PartitionsSkipped int
	// ParallelFallback names why a multi-worker query ran on the serial
	// plan ("small-file", ...); empty when the parallel plan
	// ran (or was never requested). ParallelFallbackDetail elaborates.
	ParallelFallback       string
	ParallelFallbackDetail string
}

// Result is a fully materialised query result.
type Result struct {
	Columns []string
	Types   []vector.Type
	cols    []*vector.Vector
	Stats   Stats
}

// NumRows returns the number of result rows.
func (r *Result) NumRows() int {
	if len(r.cols) == 0 {
		return 0
	}
	return r.cols[0].Len()
}

// Value returns the value at (row, col) boxed in an interface.
func (r *Result) Value(row, col int) any { return r.cols[col].Value(row) }

// Column returns the col-th result vector. Callers must not modify it.
func (r *Result) Column(col int) *vector.Vector { return r.cols[col] }

// Int64 returns the int64 at (row, col); it panics on type mismatch, like
// indexing a typed column would.
func (r *Result) Int64(row, col int) int64 { return r.cols[col].Int64s[row] }

// Float64 returns the float64 at (row, col).
func (r *Result) Float64(row, col int) float64 { return r.cols[col].Float64s[row] }
