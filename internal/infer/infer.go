// Package infer derives table schemas from raw file bytes and registers
// command-line table specs against an engine. It is the shared front end of
// cmd/rawql and cmd/rawserve: both declare the same engine and name=path
// flags (EngineFlags), and both must infer identical schemas so a query typed
// locally and one sent to a server see the same types.
//
// Inference rules (the paper's conventions): CSV columns are typed from the
// first row and named col1..colN; JSONL columns are the numeric leaf paths of
// the first object, dotted; binary files carry their types in the header;
// datasets borrow the schema of their first partition.
package infer

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rawdb"
	"rawdb/internal/bytesconv"
	"rawdb/internal/dataset"
	"rawdb/internal/faults"
	"rawdb/internal/storage/binfile"
	"rawdb/internal/storage/csvfile"
	"rawdb/internal/storage/jsonfile"
	"rawdb/internal/storage/rootfile"
)

// CSVSchema types each column from the first row: integer if it parses as
// one, else float. Columns are named col1..colN (the paper's numbering).
func CSVSchema(data []byte) ([]raw.Column, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("empty file")
	}
	var schema []raw.Column
	pos := 0
	for pos < len(data) {
		start, end, next := csvfile.FieldBounds(data, pos)
		field := data[start:end]
		t := raw.Int64
		if _, err := bytesconv.ParseInt64(field); err != nil {
			if _, err := bytesconv.ParseFloat64(field); err != nil {
				return nil, fmt.Errorf("column %d: first-row value %q is neither integer nor float",
					len(schema)+1, field)
			}
			t = raw.Float64
		}
		schema = append(schema, raw.Column{Name: fmt.Sprintf("col%d", len(schema)+1), Type: t})
		pos = next
		if pos > 0 && pos <= len(data) && data[pos-1] == '\n' {
			break
		}
	}
	return schema, nil
}

// JSONSchema collects the numeric leaf paths of the first object (in member
// order, descending into nested objects with dotted names): integer if the
// value parses as one, else float. Non-numeric members are skipped — they
// remain in the file but invisible, the partial-schema model.
func JSONSchema(data []byte) ([]raw.Column, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("empty file")
	}
	var schema []raw.Column
	var walk func(pos int, prefix string) error
	walk = func(pos int, prefix string) error {
		pos, ok := jsonfile.EnterObject(data, pos)
		if !ok {
			return fmt.Errorf("first row is not a JSON object")
		}
		for {
			ks, ke, vpos, next, done, err := jsonfile.NextMember(data, pos)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			path := prefix + string(data[ks:ke])
			if data[vpos] == '{' {
				if err := walk(vpos, path+"."); err != nil {
					return err
				}
				pos = jsonfile.SkipValue(data, next)
				continue
			}
			field := data[vpos:jsonfile.NumberEnd(data, vpos)]
			if _, err := bytesconv.ParseInt64(field); err == nil {
				schema = append(schema, raw.Column{Name: path, Type: raw.Int64})
			} else if _, err := bytesconv.ParseFloat64(field); err == nil {
				schema = append(schema, raw.Column{Name: path, Type: raw.Float64})
			}
			pos = jsonfile.SkipValue(data, next)
		}
	}
	if err := walk(0, ""); err != nil {
		return nil, err
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("first row has no numeric leaf paths")
	}
	return schema, nil
}

// BinarySchema reads the column types from a binary file's header and names
// the columns col1..colN.
func BinarySchema(data []byte) ([]raw.Column, error) {
	r, err := binfile.NewReader(data)
	if err != nil {
		return nil, err
	}
	schema := make([]raw.Column, len(r.Types()))
	for i, t := range r.Types() {
		schema[i] = raw.Column{Name: fmt.Sprintf("col%d", i+1), Type: t}
	}
	return schema, nil
}

// DatasetSchema infers a dataset's schema from its first partition
// (partitions share one schema; CSV and binary columns are positional, so a
// CSV-first mixed dataset gets col1..colN names that JSONL partitions will
// not resolve — declare the schema in code via raw.RegisterDataset for
// those).
func DatasetSchema(pattern string) ([]raw.Column, error) {
	m, err := dataset.Discover(pattern, dataset.AutoFormat)
	if err != nil {
		return nil, err
	}
	if len(m.Parts) == 0 {
		return nil, fmt.Errorf("no files match (schema inference needs at least one)")
	}
	p := m.Parts[0]
	data, err := os.ReadFile(p.Path)
	if err != nil {
		return nil, err
	}
	switch p.Format {
	case raw.FormatCSV:
		return CSVSchema(data)
	case raw.FormatJSON:
		return JSONSchema(data)
	default: // binary
		return BinarySchema(data)
	}
}

// Specs carries the repeated name=path table flags of the command line.
type Specs struct {
	CSVs     []string // name=path
	Bins     []string // name=path
	JSONs    []string // name=path
	Roots    []string // path; every tree becomes a table
	Datasets []string // name=pattern (directory or glob)
}

// Register infers a schema for every spec and registers the tables on eng.
// File-backed specs are read fully into memory (the model of DESIGN.md: disk
// I/O is outside the measured system); datasets stay on disk and are re-stat
// ed per query.
func Register(eng *raw.Engine, s Specs) error {
	for _, spec := range s.CSVs {
		name, path, err := SplitSpec(spec)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		schema, err := CSVSchema(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := eng.RegisterCSVData(name, data, schema); err != nil {
			return err
		}
	}
	for _, spec := range s.JSONs {
		name, path, err := SplitSpec(spec)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		schema, err := JSONSchema(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := eng.RegisterJSONData(name, data, schema); err != nil {
			return err
		}
	}
	for _, spec := range s.Bins {
		name, path, err := SplitSpec(spec)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		schema, err := BinarySchema(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := eng.RegisterBinaryData(name, data, schema); err != nil {
			return err
		}
	}
	for _, spec := range s.Datasets {
		name, pattern, err := SplitSpec(spec)
		if err != nil {
			return err
		}
		schema, err := DatasetSchema(pattern)
		if err != nil {
			return fmt.Errorf("%s: %w", pattern, err)
		}
		if err := eng.RegisterDataset(name, pattern, schema); err != nil {
			return err
		}
	}
	for _, path := range s.Roots {
		f, err := rootfile.Open(path)
		if err != nil {
			return err
		}
		for _, treeName := range f.Trees() {
			tr, err := f.Tree(treeName)
			if err != nil {
				return err
			}
			var schema []raw.Column
			for _, bn := range tr.Branches() {
				br, err := tr.Branch(bn)
				if err != nil {
					return err
				}
				schema = append(schema, raw.Column{Name: bn, Type: br.Type})
			}
			if err := eng.RegisterRootFile(treeName, f, treeName, schema); err != nil {
				return err
			}
		}
	}
	return nil
}

// SplitSpec splits one name=path table spec.
func SplitSpec(spec string) (name, path string, err error) {
	i := strings.IndexByte(spec, '=')
	if i <= 0 || i == len(spec)-1 {
		return "", "", fmt.Errorf("bad table spec %q (want name=path)", spec)
	}
	return spec[:i], spec[i+1:], nil
}

// ParseStrategy maps a command-line strategy name to the engine constant.
func ParseStrategy(s string) (raw.Strategy, error) {
	switch strings.ToLower(s) {
	case "shreds":
		return raw.StrategyShreds, nil
	case "jit":
		return raw.StrategyJIT, nil
	case "insitu":
		return raw.StrategyInSitu, nil
	case "external":
		return raw.StrategyExternal, nil
	case "dbms":
		return raw.StrategyDBMS, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", s)
	}
}

// EngineFlags are the engine and table flags rawql and rawserve share: Bind
// declares them, Open turns their parsed values into a registered engine.
type EngineFlags struct {
	Specs                                Specs
	Strategy                             string
	Workers                              int
	CacheDir                             string
	CacheBudget                          int64
	NoPushdown, NoZoneMaps, NoShredCache bool
	Faults                               string
	FaultSeed                            int64
	QueryLog                             string
	// QueryLogBytes rotates a file query log (0 keeps the 64 MiB default);
	// only rawserve exposes it, as -query-log-bytes.
	QueryLogBytes int64
	SlowMs        int
}

// multiFlag collects the values of a repeatable flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// Bind declares the shared flags on fs.
func (f *EngineFlags) Bind(fs *flag.FlagSet) {
	fs.Var((*multiFlag)(&f.Specs.CSVs), "csv", "register a CSV file as name=path (repeatable)")
	fs.Var((*multiFlag)(&f.Specs.Bins), "bin", "register a binary file as name=path (repeatable)")
	fs.Var((*multiFlag)(&f.Specs.JSONs), "json", "register a JSONL file as name=path (repeatable)")
	fs.Var((*multiFlag)(&f.Specs.Roots), "root", "register every tree of a root-like file (path; tree names become table names; repeatable)")
	fs.Var((*multiFlag)(&f.Specs.Datasets), "dataset", "register a directory or glob of raw files as one table, name=pattern (formats inferred per file by extension; schema inferred from the first file; repeatable)")
	fs.StringVar(&f.Strategy, "strategy", "shreds", "access strategy: shreds, jit, insitu, external, dbms")
	fs.IntVar(&f.Workers, "workers", 1, "morsel-parallel workers for scans, aggregation and joins (<=1 serial; ROOT tables and sub-morsel files fall back to serial with the reason reported in the query stats)")
	fs.StringVar(&f.CacheDir, "cachedir", "", "persistent vault directory: positional maps, structural indexes and column shreds persist here across runs (safe to delete at any time)")
	fs.Int64Var(&f.CacheBudget, "cachebudget", 0, "in-memory cache budget in bytes across positional maps, structural indexes, synopses and column shreds (0 selects 256 MiB and leaves rawserve's memory governor off)")
	fs.BoolVar(&f.NoPushdown, "nopushdown", false, "keep WHERE predicates in Filter operators instead of pushing them into the generated access paths")
	fs.BoolVar(&f.NoShredCache, "noshredcache", false, "disable column-shred capture and reuse (raw-file scans then absorb predicates and skip zone-map-excluded blocks; capture otherwise wins that conflict)")
	fs.BoolVar(&f.NoZoneMaps, "nozonemaps", false, "disable per-block min/max zone maps (no block or morsel skipping)")
	fs.StringVar(&f.Faults, "faults", "", "chaos testing: inject deterministic faults into file and cache access, e.g. 'vault.read:corrupt:after=2;csv.load:err:times=1' (sites: csv.load json.load vault.read vault.write dataset.stat exec.morsel exec.serial; kinds: err notexist shortread corrupt torn latency panic)")
	fs.Int64Var(&f.FaultSeed, "fault-seed", 1, "seed for the -faults schedule (determinism across runs)")
	fs.StringVar(&f.QueryLog, "query-log", "", "append one structured JSON record per query to this file ('-' for stderr)")
	fs.IntVar(&f.SlowMs, "slow-query-ms", 0, "with -query-log: trace every query and embed the rendered span tree in records at or over this latency")
}

// Open installs the -faults schedule, opens the query log, builds the engine
// and registers the table specs on it. closeAll closes the engine, flushing
// vault write-backs so the next run starts warm, and then the query log.
func (f *EngineFlags) Open() (eng *raw.Engine, closeAll func(), err error) {
	if f.Faults != "" {
		sched, err := faults.ParseSpec(f.Faults, f.FaultSeed)
		if err != nil {
			return nil, nil, err
		}
		faults.Install(sched)
	}
	cfg, err := f.config()
	if err != nil {
		return nil, nil, err
	}
	switch f.QueryLog {
	case "":
	case "-":
		cfg.QueryLog = raw.NewQueryLog(os.Stderr)
	default:
		if cfg.QueryLog, err = raw.OpenQueryLog(f.QueryLog, f.QueryLogBytes); err != nil {
			return nil, nil, err
		}
	}
	eng = raw.NewEngine(cfg)
	closeAll = func() {
		eng.Close()
		cfg.QueryLog.Close()
	}
	if err := Register(eng, f.Specs); err != nil {
		closeAll()
		return nil, nil, err
	}
	return eng, closeAll, nil
}

// config is the engine configuration the flags describe, query log aside.
func (f *EngineFlags) config() (raw.Config, error) {
	strat, err := ParseStrategy(f.Strategy)
	if err != nil {
		return raw.Config{}, err
	}
	if f.SlowMs > 0 && f.QueryLog == "" {
		return raw.Config{}, fmt.Errorf("-slow-query-ms needs -query-log")
	}
	return raw.Config{Strategy: strat, Parallelism: f.Workers,
		CacheDir: f.CacheDir, CacheBudget: f.CacheBudget,
		DisablePushdown: f.NoPushdown, DisableZoneMaps: f.NoZoneMaps,
		DisableShredCache: f.NoShredCache, SlowQueryMillis: f.SlowMs}, nil
}
