// Package raw is a query engine that adapts itself to raw data files instead
// of loading them — a from-scratch Go implementation of "Adaptive Query
// Processing on RAW Data" (Karpathiotakis, Branco, Alagiannis, Ailamaki,
// PVLDB 7(12), 2014).
//
// Register raw files (CSV, newline-delimited JSON, fixed-width binary, or a
// ROOT-like scientific format) under table names and query them with SQL. No
// loading step occurs: the engine generates Just-In-Time access paths per
// file format and query, builds positional maps (and, for JSON, structural
// indexes over the touched field paths) as a side effect of execution, and
// caches column shreds — exactly the fragments of columns past queries
// touched — so repeated analysis approaches in-memory DBMS speed without
// ever ingesting the data.
//
//	eng := raw.NewEngine(raw.Config{})
//	_ = eng.RegisterCSV("events", "events.csv", []raw.Column{
//		{Name: "id", Type: raw.Int64},
//		{Name: "energy", Type: raw.Float64},
//	})
//	res, err := eng.Query("SELECT MAX(energy) FROM events WHERE id < 1000")
//
// JSON tables declare only the dotted paths queries touch (a partial schema,
// like ROOT tables), and those paths are usable directly in SQL:
//
//	_ = eng.RegisterJSON("hits", "hits.jsonl", []raw.Column{
//		{Name: "id", Type: raw.Int64},
//		{Name: "payload.energy", Type: raw.Float64},
//	})
//	res, err = eng.Query("SELECT MAX(payload.energy) FROM hits WHERE id < 1000")
//
// The engine also implements the paper's comparison points — a load-first
// DBMS, external tables and generic NoDB-style in-situ scans — selectable
// via Config.Strategy or per query, which is how the benchmarks in this
// repository regenerate the paper's figures.
package raw

import (
	"context"
	"io"
	"time"

	"rawdb/internal/catalog"
	"rawdb/internal/engine"
	"rawdb/internal/obs"
	"rawdb/internal/posmap"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/vector"
)

// Type identifies the type of a table column.
type Type = vector.Type

// Column types.
const (
	Int64   = vector.Int64
	Float64 = vector.Float64
	Bool    = vector.Bool
	Bytes   = vector.Bytes
)

// Column declares one field of a table schema.
type Column struct {
	Name string
	Type Type
}

// Strategy selects how queries access raw data. See the Config documentation.
type Strategy = engine.Strategy

// Strategies, from the full RAW design down to the baselines the paper
// compares against.
const (
	// StrategyShreds is RAW proper: JIT access paths plus column shreds.
	StrategyShreds = engine.StrategyShreds
	// StrategyJIT uses JIT access paths with full columns.
	StrategyJIT = engine.StrategyJIT
	// StrategyInSitu is the NoDB baseline (generic scans + positional maps).
	StrategyInSitu = engine.StrategyInSitu
	// StrategyExternal re-parses the file per query (external tables).
	StrategyExternal = engine.StrategyExternal
	// StrategyDBMS loads tables fully on first touch, then queries memory.
	StrategyDBMS = engine.StrategyDBMS
)

// JoinPlacement selects where columns projected through a join are created.
type JoinPlacement = engine.JoinPlacement

// Join placements for projected columns (paper Section 5.3.2).
const (
	PlaceLate         = engine.PlaceLate
	PlaceEarly        = engine.PlaceEarly
	PlaceIntermediate = engine.PlaceIntermediate
)

// PosMapPolicy selects which CSV columns positional maps track.
type PosMapPolicy = posmap.Policy

// Config configures an Engine. The zero value is the full RAW design with
// the paper's defaults.
type Config struct {
	// Strategy is the default access strategy (StrategyShreds).
	Strategy Strategy
	// PosMapPolicy selects tracked positional-map columns (default: every
	// 10th column, the paper's heuristic).
	PosMapPolicy PosMapPolicy
	// BatchSize is the vector size exchanged between operators (1024).
	BatchSize int
	// Parallelism is the number of worker goroutines queries fan out over
	// (morsel-driven parallel scans, partial/final aggregation, shared-build
	// hash joins). Values <= 1 keep every query serial. The only queries that
	// still fall back to the serial plan are those over ROOT tables and files
	// too small to split into two morsels; every fallback carries a
	// structured reason in Stats.ParallelFallback, Explain output, and a
	// lifecycle event, and results are bit-identical either way (float SUM
	// and AVG use exact summation in both plans).
	Parallelism int
	// CompileDelay simulates the one-time latency of compiling a generated
	// access path, charged to the first query that needs it.
	CompileDelay time.Duration
	// DisableShredCache turns off column-shred capture and reuse.
	DisableShredCache bool
	// JoinPlacement places join-projected columns (default PlaceLate).
	JoinPlacement JoinPlacement
	// MultiColumnShreds fetches all late columns in one pass (Figure 9's
	// speculative multi-column shreds).
	MultiColumnShreds bool
	// CacheDir, when non-empty, enables the persistent raw-data vault:
	// positional maps, JSON structural indexes and column shreds are written
	// back to <CacheDir>/<table>/*.rawv after queries and reloaded on
	// Register*, so the first query after a process restart runs warm.
	// Entries are validated against a fingerprint of the raw file (size,
	// mtime, sampled checksum, schema); any mismatch or corruption falls
	// back to a cold rebuild, so deleting the directory is always safe.
	CacheDir string
	// CacheBudget bounds the total in-memory bytes of positional maps,
	// structural indexes, synopses and column shreds under one LRU budget;
	// values <= 0 select 256 MiB. Only a value > 0 arms the server's memory
	// governor.
	CacheBudget int64
	// DisablePushdown keeps every WHERE conjunct in a separate Filter
	// operator instead of absorbing eligible ones into the generated access
	// paths. Pushdown is on by default: predicate checks are inlined into
	// the per-row step chains of sequential scans (failing rows short-
	// circuit the rest of the row) and evaluated vectorized in via-map,
	// binary and shred scans (batches then carry a selection vector).
	DisablePushdown bool
	// DisableZoneMaps turns off the per-block min/max synopses built as a
	// free side effect of sequential scans and used to skip blocks and whole
	// morsels that a predicate excludes. Zone maps persist in the vault
	// (CacheDir) alongside positional maps and structural indexes.
	DisableZoneMaps bool
	// OnEvent, when non-nil, is called synchronously for every adaptive-
	// structure lifecycle event (captured, restored, evicted, invalidated),
	// in addition to the engine's bounded in-memory event log.
	OnEvent func(Event)
	// QueryLog, when non-nil, receives one structured JSON record per query
	// (ID, SQL hash, tables, rows, per-phase timings, access paths, prune
	// counters, error). Build one with NewQueryLog or OpenQueryLog.
	QueryLog *QueryLog
	// SlowQueryMillis, when > 0 and QueryLog is set, additionally attaches a
	// trace to every otherwise-untraced query and embeds the rendered span
	// tree in the log record of any query at or over the threshold.
	SlowQueryMillis int
}

// Options overrides engine defaults for a single query.
type Options = engine.Options

// Trace collects the operator- and phase-level spans of one query. Create
// one with NewTrace, attach it via Options.Trace, then render it
// (EXPLAIN ANALYZE-style) or export it (chrome://tracing JSON) after the
// query returns. Queries without a trace plan the exact same operator tree
// they always did — tracing has zero cost when off.
type Trace = obs.Trace

// Span is one timed region of a traced query.
type Span = obs.Span

// NewTrace returns an empty trace to attach to a query via Options.Trace.
func NewTrace() *Trace { return obs.NewTrace() }

// Metrics is the engine-wide metrics registry: cumulative counters folded in
// at query end, pull-mode gauges over the adaptive-structure caches, and
// latency histograms.
type Metrics = obs.Registry

// Event is one adaptive-structure lifecycle event (captured, restored,
// evicted, invalidated).
type Event = obs.Event

// Lifecycle event kinds. EventFallback reports a multi-worker query that ran
// on the serial plan, with the structured reason in the event's Reason.
const (
	EventCaptured    = obs.EventCaptured
	EventRestored    = obs.EventRestored
	EventEvicted     = obs.EventEvicted
	EventInvalidated = obs.EventInvalidated
	EventFallback    = obs.EventFallback
	// EventQuarantined reports a corrupt persistent-vault entry that was
	// deleted on discovery; the structure rebuilt cold from the raw file.
	EventQuarantined = obs.EventQuarantined
	// EventFault reports an injected fault firing (chaos testing).
	EventFault = obs.EventFault
	// EventRetry reports a transient failure the engine absorbed by retrying
	// (raw-file load backoff, partition-lost query rerun).
	EventRetry = obs.EventRetry
	// EventStaleManifest reports a dataset manifest refresh that failed; the
	// query degraded to the partition list it last saw.
	EventStaleManifest = obs.EventStaleManifest
	// EventPanicRecovered reports a panic inside query execution that the
	// engine converted into a query error.
	EventPanicRecovered = obs.EventPanicRecovered
)

// WritePrometheus renders the registry in Prometheus text exposition format
// (0.0.4): HELP/TYPE headers, rawdb_-prefixed normalized names, and
// cumulative histogram buckets. Served by the query server at /metrics.
func WritePrometheus(w io.Writer, m *Metrics) error { return m.WritePrometheus(w) }

// LintPrometheus validates a Prometheus text exposition stream (the checks
// promtool's format checker performs: name charset, TYPE placement, bucket
// monotonicity, +Inf terminals). Used by CI to gate the /metrics endpoint.
func LintPrometheus(r io.Reader) error { return obs.LintPrometheus(r) }

// QueryLog is a bounded, rotating sink of structured per-query JSON records.
// Attach one via Config.QueryLog; every query appends one QueryRecord line.
type QueryLog = obs.QueryLog

// QueryRecord is one structured query-log line.
type QueryRecord = obs.QueryRecord

// NewQueryLog returns a query log writing JSON lines to w (e.g. os.Stderr).
func NewQueryLog(w io.Writer) *QueryLog { return obs.NewQueryLog(w) }

// OpenQueryLog opens (appending) a query log at path, rotating once to
// path+".1" when it exceeds maxBytes (default 64 MiB when 0).
func OpenQueryLog(path string, maxBytes int64) (*QueryLog, error) {
	return obs.OpenQueryLog(path, maxBytes)
}

// HeatSnapshot is a point-in-time view of the workload-heat profiler:
// per-table scan counts, bytes read and avoided, per-structure hit/build
// counts and per-column read/filter counts. See Engine.HeatSnapshot.
type HeatSnapshot = obs.HeatSnapshot

// InflightQuery describes one currently-executing query (see
// Engine.Inflight).
type InflightQuery = engine.InflightQuery

// Stats describes how a query executed: strategy, chosen access paths,
// template-cache and shred-cache outcomes.
type Stats = engine.Stats

// Result is a fully materialised query result.
type Result = engine.Result

// Engine is a RAW query engine instance. It is safe to share across
// goroutines for registration and querying of distinct tables; concurrent
// queries over the same table serialise on internal caches.
type Engine struct {
	e *engine.Engine
}

// NewEngine returns an engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	return &Engine{e: engine.New(engine.Config{
		Strategy:          cfg.Strategy,
		PosMapPolicy:      cfg.PosMapPolicy,
		BatchSize:         cfg.BatchSize,
		Parallelism:       cfg.Parallelism,
		CompileDelay:      cfg.CompileDelay,
		DisableShredCache: cfg.DisableShredCache,
		JoinPlacement:     cfg.JoinPlacement,
		MultiColumnShreds: cfg.MultiColumnShreds,
		CacheDir:          cfg.CacheDir,
		CacheBudget:       cfg.CacheBudget,
		DisablePushdown:   cfg.DisablePushdown,
		DisableZoneMaps:   cfg.DisableZoneMaps,
		OnEvent:           cfg.OnEvent,
		QueryLog:          cfg.QueryLog,
		SlowQueryMillis:   cfg.SlowQueryMillis,
	})}
}

func cols(schema []Column) []catalog.Column {
	out := make([]catalog.Column, len(schema))
	for i, c := range schema {
		out[i] = catalog.Column{Name: c.Name, Type: c.Type}
	}
	return out
}

// RegisterCSV registers a CSV file as a queryable table. Registration only
// records metadata; the file is read lazily by the first query.
func (e *Engine) RegisterCSV(name, path string, schema []Column) error {
	return e.e.RegisterCSV(name, path, cols(schema))
}

// RegisterCSVData registers an in-memory CSV image.
func (e *Engine) RegisterCSVData(name string, data []byte, schema []Column) error {
	return e.e.RegisterCSVData(name, data, cols(schema))
}

// RegisterJSON registers a newline-delimited JSON file (one object per
// line) as a queryable table. The schema is partial: each column names a
// dotted path into the objects (e.g. "payload.energy"), and only declared
// paths are visible — files with arbitrarily rich objects need not be
// described in full. Registration only records metadata; the file is read
// lazily by the first query, which also builds a structural index over the
// touched paths so later queries jump straight to the needed fields.
func (e *Engine) RegisterJSON(name, path string, schema []Column) error {
	return e.e.RegisterJSON(name, path, cols(schema))
}

// RegisterJSONData registers an in-memory JSONL image.
func (e *Engine) RegisterJSONData(name string, data []byte, schema []Column) error {
	return e.e.RegisterJSONData(name, data, cols(schema))
}

// FileFormat identifies the concrete format of a dataset partition.
type FileFormat = catalog.Format

// Partition formats for RegisterDatasetFormat / RegisterDatasetParts.
const (
	FormatCSV    = catalog.CSV
	FormatJSON   = catalog.JSON
	FormatBinary = catalog.Binary
)

// RegisterDataset registers a directory or glob of raw files as one logical
// table: each matching file becomes a partition whose format is inferred
// from its extension (.csv, .json/.jsonl/.ndjson, .bin — mixed formats in
// one dataset are fine), and the partition list is refreshed at every query
// start, so files arriving in the directory are picked up and rewritten or
// truncated files are re-read without re-registration. Queries plan each
// partition independently — per-partition positional maps, structural
// indexes, column shreds and zone maps, with partitions a zone-map synopsis
// excludes pruned before their file is even opened (Stats.PartitionsSkipped)
// — and concatenate results in path order.
func (e *Engine) RegisterDataset(name, pattern string, schema []Column) error {
	return e.e.RegisterDataset(name, pattern, cols(schema))
}

// RegisterDatasetFormat is RegisterDataset with every partition forced to
// one format regardless of file extension.
func (e *Engine) RegisterDatasetFormat(name, pattern string, format FileFormat, schema []Column) error {
	return e.e.RegisterDatasetFormat(name, pattern, format, cols(schema))
}

// DatasetPart is one in-memory partition for RegisterDatasetParts.
type DatasetPart struct {
	Format FileFormat
	Data   []byte
}

// RegisterDatasetParts registers a dataset whose partitions are in-memory
// raw images, in slice order (tests, benchmarks, harnesses).
func (e *Engine) RegisterDatasetParts(name string, parts []DatasetPart, schema []Column) error {
	eps := make([]engine.DataPart, len(parts))
	for i, p := range parts {
		eps[i] = engine.DataPart{Format: p.Format, Data: p.Data}
	}
	return e.e.RegisterDatasetParts(name, eps, cols(schema))
}

// RegisterBinary registers a fixed-width binary file (see package
// internal/storage/binfile for the format).
func (e *Engine) RegisterBinary(name, path string, schema []Column) error {
	return e.e.RegisterBinary(name, path, cols(schema))
}

// RegisterBinaryData registers an in-memory binary image.
func (e *Engine) RegisterBinaryData(name string, data []byte, schema []Column) error {
	return e.e.RegisterBinaryData(name, data, cols(schema))
}

// RegisterRoot registers one tree of a ROOT-like scientific file as a table.
// The schema may be partial: only declared branches are visible, so files
// with thousands of attributes need not be described in full.
func (e *Engine) RegisterRoot(name, path, tree string, schema []Column) error {
	return e.e.RegisterRoot(name, path, tree, cols(schema))
}

// RegisterRootFile registers a tree of an already-open ROOT-like file; all
// tables registered from one file share its buffer pool.
func (e *Engine) RegisterRootFile(name string, f *rootfile.File, tree string, schema []Column) error {
	return e.e.RegisterRootFile(name, f, tree, cols(schema))
}

// RegisterResult registers a previous query result as an in-memory table,
// enabling multi-stage analyses. names renames the result columns (pass nil
// to keep them; aggregate names like "COUNT(*)" must be renamed to be
// referenced in SQL).
func (e *Engine) RegisterResult(name string, res *Result, names []string) error {
	return e.e.RegisterResult(name, res, names)
}

// DropTable removes a registered table.
func (e *Engine) DropTable(name string) error { return e.e.DropTable(name) }

// Metrics exposes the engine-wide metrics registry.
func (e *Engine) Metrics() *Metrics { return e.e.Metrics() }

// CacheBudgetUsage reports the cache budget's current size and the
// configured Config.CacheBudget in bytes (capacity <= 0: none configured).
func (e *Engine) CacheBudgetUsage() (used, capacity int64) { return e.e.CacheBudgetUsage() }

// EstimateQueryBytes estimates the adaptive-structure bytes a query could
// add to the cache budget (see the server's memory governor).
func (e *Engine) EstimateQueryBytes(src string) int64 { return e.e.EstimateQueryBytes(src) }

// RecentEvents returns the buffered adaptive-structure lifecycle events,
// oldest first.
func (e *Engine) RecentEvents() []Event { return e.e.RecentEvents() }

// HeatSnapshot returns the workload-heat profiler's current per-table view
// (scans, bytes read/avoided, structure effectiveness, column touch counts).
func (e *Engine) HeatSnapshot() HeatSnapshot { return e.e.Heat().Snapshot() }

// Inflight lists the queries currently executing (or queued inside the
// engine), sorted by query ID.
func (e *Engine) Inflight() []InflightQuery { return e.e.Inflight() }

// CancelQuery cancels the in-flight query with the given ID, if it is still
// running. The query fails with a context.Canceled-wrapping error, publishes
// no cache structures, and releases its locks within one batch of work.
func (e *Engine) CancelQuery(id int64) bool { return e.e.CancelQuery(id) }

// Tables returns the registered table names, sorted.
func (e *Engine) Tables() []string { return e.e.Catalog().Names() }

// Query parses, plans and executes one SQL statement.
func (e *Engine) Query(src string) (*Result, error) { return e.e.Query(src) }

// QueryOpt executes one SQL statement with per-query option overrides.
func (e *Engine) QueryOpt(src string, opts Options) (*Result, error) {
	return e.e.QueryOpt(src, opts)
}

// QueryCtx is Query with a cancellation context: when ctx is cancelled or its
// deadline passes, the running plan is abandoned within one batch of work, no
// cache structure is published, and the query's table locks and budget bytes
// are released. The returned error wraps ctx.Err(), so errors.Is against
// context.Canceled / context.DeadlineExceeded works.
func (e *Engine) QueryCtx(ctx context.Context, src string) (*Result, error) {
	return e.e.QueryCtx(ctx, src)
}

// QueryOptCtx is QueryCtx with per-query option overrides.
func (e *Engine) QueryOptCtx(ctx context.Context, src string, opts Options) (*Result, error) {
	return e.e.QueryOptCtx(ctx, src, opts)
}

// Explain describes the physical plan the engine would choose for src under
// the current cache state, without executing it.
func (e *Engine) Explain(src string, opts Options) (string, error) {
	return e.e.Explain(src, opts)
}

// DropCaches clears all query-derived state (positional maps, column shreds,
// generated access paths, loaded columns, file buffer pools), simulating a
// cold start. The persistent vault (Config.CacheDir) is not touched: it is
// only read at Register* time.
func (e *Engine) DropCaches() { e.e.DropCaches() }

// FlushVault writes back every dirty adaptive structure to the persistent
// vault and waits for in-flight asynchronous write-backs. A no-op without
// Config.CacheDir.
func (e *Engine) FlushVault() { e.e.FlushVault() }

// Close flushes pending vault write-backs so the next process restarts warm.
// The engine remains usable afterwards.
func (e *Engine) Close() error { return e.e.Close() }

// Internal returns the underlying engine for benchmark and test harnesses
// inside this module.
func (e *Engine) Internal() *engine.Engine { return e.e }
