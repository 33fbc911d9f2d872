package engine

import (
	"context"
	"fmt"
	"slices"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/insitu"
	"rawdb/internal/jit"
	"rawdb/internal/obs"
	"rawdb/internal/shred"
	"rawdb/internal/storage/rawfile"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

// planCtx carries one planning attempt: the query's resolved options, the
// query record every build site writes what it built to (record.go), and
// whether the shred pool is consulted and fed (Config.DisableShredCache
// clears it). Build one with queryRecord.newPlanCtx.
type planCtx struct {
	planOpts
	*queryRecord
	useCache bool
	// ctx is the query's cancellation context: base scans are wrapped with a
	// per-batch check and exchanges hand it to their worker pools. nil (or a
	// never-cancelled context) leaves the plan untouched.
	ctx context.Context

	// Publication hooks. Execution runs without the table locks, so every
	// mutation of shared per-table state a query performs is deferred to
	// these, which run under the re-acquired locks and on success only: first
	// onMerge — raw-file scans' merges of positional structure and zone-map
	// fragments, which can fail — then publishTees, which puts the columns
	// the tees captured into the shred pool and reports what it installed.
	onMerge []func() error
	tees    []tee

	// images are the mapped files the plan reads, held until it is done.
	images rawfile.Held
}

// Structured parallel-fallback reasons. With joins, HAVING, AVG, float SUM,
// and bare GROUP BY parallel-native, these are the only ways a workers > 1
// query still runs as one part.
const (
	// fallbackSmallFile: the file (or dataset) yields fewer than two
	// morsels, so an exchange would only add overhead over the one-part scan.
	fallbackSmallFile = "small-file"
	// fallbackUnsupportedFormat: the strategy has no reader for this format
	// at all (building the plan then fails).
	fallbackUnsupportedFormat = "unsupported-format"
	// fallbackInternal: the strategy is not one the planner knows (building
	// the plan then fails).
	fallbackInternal = "planner-internal"
)

// morselsPerWorker oversubscribes the morsel count so slow morsels (denser
// rows, colder cache lines) do not leave workers idle at the tail.
const morselsPerWorker = 2

// plan is decide's value: how every scan unit of a query is read and what
// stacks on it, with nothing built yet.
type plan struct {
	// par: the units are cut into exchange inputs; otherwise every one is
	// [wholeTable]. reason and detail say why a workers > 1 query is not cut
	// (the first, most specific decline wins).
	par            bool
	reason, detail string
	loaded         []string // tables the DBMS baseline loaded to count their rows
	tables         []tablePlan
	agg            aggPlan
}

// tablePlan is one table of the query: its units — itself, or one per
// partition in manifest order — and the late scan of the columns a join
// creates above itself (after, if any). cols are what a cut or dataset
// scan of it materialises, sorted: every partition is projected onto them.
type tablePlan struct {
	cols  []int
	units []unitPlan
	after *scanStep
}

// unitPlan is one scan unit — a table, a join side, a dataset partition.
type unitPlan struct {
	// bt is the unit bound as a table: the query's own, or a partition under
	// its dataset's alias with its own snapshot of the positional structures.
	bt *boundTable
	// spans are the parts the unit is scanned in: [wholeTable] for the
	// one-part plan; else row ranges (resident vectors, positional modes) or
	// record-aligned byte ranges (a cold text image), each one input of an
	// exchange. nil: a partition pruned without opening its file.
	spans []span
	// shreds are the full shreds of every column a cut scan reads, if it
	// reads no raw file; a is the access a cut raw-file scan reads through.
	shreds []*shred.Shred
	a      access
	base   scanStep
	late   []scanStep // a cascade's, or a join side's before the join
}

func (u *unitPlan) whole() bool { return len(u.spans) == 1 && u.spans[0] == wholeTable }

// scanStep is one scan: a unit's base scan, or a late scan appending columns
// by row id. filter runs right above it.
type scanStep struct {
	late bool
	// cols are the columns the step reads itself: a base scan's resident
	// vectors (labelled resident) or raw-file columns (read under kind through
	// a), or those a late scan reads through the table's late reader.
	cols     []int
	vecs     []*vector.Vector
	resident string
	kind     scanKind
	a        access
	err      error // the plug-in refused the access: build fails here
	// spans are a base scan's parts but the skipped ones a zone map excludes.
	spans   []span
	skipped int
	// push are the predicates the scan evaluates (on table columns for a raw
	// scan, output slots for a resident one), npush of them absorbed; skip is
	// its zone-map test and zmap says a zone map steers it.
	push  []exec.Pred
	npush int
	skip  func(lo, hi int64) bool
	zmap  bool
	// synObs are what a raw scan's synopsis builders observe; tee captures its
	// columns whole, capture keyed by row id.
	synObs       map[int]vector.Type
	tee, capture bool
	emitRID      bool
	// pooled are the columns a cut raw scan rereads although the pool holds
	// them whole (it reads every column of a partially cached set).
	pooled []int
	// cached are served from the pool by row id, from shreds: full ones
	// appended to a base scan, a late scan's partial ones completed from the
	// raw file. hits counts every column the pool serves.
	cached []int
	shreds []*shred.Shred
	hits   int
	filter []boundPred
	paths  [2]int // the step's labels in Stats.AccessPaths
}

func (pl *plan) decline(reason, detailf string, args ...any) {
	if pl.reason == "" {
		pl.reason, pl.detail = reason, fmt.Sprintf(detailf, args...)
	}
}

// decide fixes, before any operator, span, stat or hook exists, how the query
// is read. First the cut: each scan unit is divided into the spans of a
// morsel-parallel plan, or — with one worker, or when any unit declines —
// into [wholeTable] everywhere. Then each unit's scans: the source of every
// column, the base/late split, pushed and residual predicates, zone skip and
// capture; a join's placement; the aggregate's decomposition. The pool is
// asked about each column once per shape, in the cascade's order. Besides
// that, decide changes only what every plan first needs resident: the raw
// files it reads (mapped, held), the DBMS baseline's loaded columns.
func (pc *planCtx) decide(r *resolvedQuery) (plan, error) {
	pl := plan{tables: make([]tablePlan, len(r.tables))}
	// The build side of a join is cut first, as it is built first.
	for t := len(r.tables) - 1; t >= 0; t-- {
		if err := pc.open(r.tables[t].st); err != nil {
			return pl, err
		}
		r.tables[t].pos = r.tables[t].st.positions()
		if err := pc.cutTable(&pl, r, t); err != nil {
			return pl, err
		}
	}
	pl.par = pc.workers > 1 && pl.reason == ""
	fc, oc := r.neededColumns()
	var after [2][]int
	for t, tp := range pl.tables {
		for i := range tp.units {
			u := &tp.units[i]
			if u.spans == nil {
				continue
			}
			if pl.reason != "" {
				u.spans, u.shreds = []span{wholeTable}, nil
			}
			if r.tables[t].st.ds != nil {
				// A partition is planned as a table reading the dataset's
				// columns: its filter columns, every other one an output.
				var pfc, poc []int
				for _, c := range tp.cols {
					if slices.ContainsFunc(r.filters[t], func(bp boundPred) bool { return bp.col == c }) {
						pfc = append(pfc, c)
					} else {
						poc = append(poc, c)
					}
				}
				if err := pc.cascade(u, r.filters[t], pfc, poc); err != nil {
					return pl, err
				}
			} else if r.join == nil {
				if err := pc.cascade(u, r.filters[t], fc[t], oc[t]); err != nil {
					return pl, err
				}
			} else if err := pc.joinSide(u, r.filters[t], fc[t], oc[t], &after[t]); err != nil {
				return pl, err
			}
		}
	}
	// The late scans above a join ask the pool last.
	for t, cols := range after {
		if len(cols) > 0 {
			s := pc.lateStep(r.tables[t], cols, nil, nil)
			pl.tables[t].after = &s
		}
	}
	// The aggregate of a cut plan runs in two stages around its exchange: a
	// partial on each part, of a table or of a join's probe side.
	var err error
	pl.agg, err = decideAgg(r, pl.par)
	return pl, err
}

// joinSide decides a join side's scans, filtered below the join. Its
// output-only columns are created by the base scan (PlaceEarly), a late scan
// before the join (intermediate) or, returned in after, above it (late); only
// a serial shred plan over addressable rows fetches late.
func (pc *planCtx) joinSide(u *unitPlan, filters []boundPred, fc, oc []int, after *[]int) error {
	canLate := u.whole() && pc.addressable(u.bt)
	place := pc.place
	if pc.strategy != StrategyShreds || !canLate {
		place = PlaceEarly
	}
	base := slices.Clone(fc) // includes the join key
	var inter []int
	switch place {
	case PlaceEarly:
		base = append(base, oc...)
	case PlaceIntermediate:
		inter = oc
	case PlaceLate:
		*after = oc
	}
	sortInts(base)
	var err error
	if u.base, err = pc.baseStep(u, base, place != PlaceEarly && len(oc) > 0, filters, nil); err != nil {
		return err
	}
	if len(inter) > 0 {
		u.late = []scanStep{pc.lateStep(u.bt, inter, nil, nil)}
	}
	return nil
}

// cutTable cuts table t. A plain table needs two spans to be worth an
// exchange, except as the build side of a join, where the probe side provides
// the parallelism. A dataset spreads the span budget over its surviving
// partitions by file size, at least one span each, and needs two in all.
func (pc *planCtx) cutTable(pl *plan, r *resolvedQuery, t int) error {
	bt, tp := r.tables[t], &pl.tables[t]
	n := 0
	if pc.workers > 1 {
		n = pc.workers * morselsPerWorker
	}
	ds := bt.st.ds
	if n > 0 || ds != nil {
		tp.cols = scanCols(r, t) // a one-part plan of a plain table picks its own
	}
	if ds == nil {
		tp.units = []unitPlan{{bt: bt}}
		return pc.cutUnit(pl, &tp.units[0], tp.cols, n, 2-t)
	}
	tp.units = make([]unitPlan, len(ds.parts))
	weight := func(i int) int64 { return max(ds.manifest.Parts[i].Size, 1) }
	var total int64
	for i, ps := range ds.parts {
		pos := ps.positions()
		if pc.prunePartition(pos.syn, r.filters[t]) {
			continue
		}
		if err := pc.e.loadPartData(ps, pc.id); err != nil {
			return err
		}
		pc.images.Hold(ps.tab.Name, ps.src.rawFile())
		tp.units[i].bt = &boundTable{alias: bt.alias, st: ps, pos: pos}
		total += weight(i)
	}
	if n > 0 && total == 0 {
		pl.decline(fallbackSmallFile, "every partition of %s pruned", bt.st.tab.Name)
	}
	nspans := 0
	for i := range tp.units {
		if u := &tp.units[i]; u.bt != nil {
			if err := pc.cutUnit(pl, u, tp.cols, max(int(int64(n)*weight(i)/total), min(n, 1)), 1); err != nil {
				return err
			}
			nspans += len(u.spans)
		}
	}
	if n > 0 && nspans < 2 {
		pl.decline(fallbackSmallFile, "%s yields %d morsels across its partitions (need 2)",
			bt.st.tab.Name, nspans)
	}
	return nil
}

// cutUnit divides one table or partition into at most n spans (0, or a query
// that already declined: the whole table), declining under min. A cut scan
// reads resident vectors, the full shreds of every column (u.shreds), or the
// raw file through the access the split was made for (u.a).
func (pc *planCtx) cutUnit(pl *plan, u *unitPlan, cols []int, n, min int) error {
	st := u.bt.st
	tab := st.tab
	u.spans = []span{wholeTable}
	dbms := pc.strategy == StrategyDBMS && tab.Format != catalog.Memory
	if dbms {
		loaded, err := pc.e.ensureLoaded(st)
		if err != nil {
			return err
		}
		if loaded {
			pl.loaded = append(pl.loaded, tab.Name)
		}
	}
	if n == 0 || pl.reason != "" {
		return nil
	}

	// Resident vectors — memory tables, what the DBMS baseline loaded, columns
	// all cached as full shreds — are cut into row ranges.
	kind, known := pc.scanKind()
	resident, rows := "", 0
	switch {
	case tab.Format == catalog.Memory:
		resident, rows = "memory table %s yields", st.loaded[cols[0]].Len()
	case dbms:
		resident, rows = "loaded table %s yields", st.loaded[cols[0]].Len()
	case !known:
		pl.decline(fallbackInternal, "no parallel planner for strategy %s", pc.strategy)
		return nil
	case kind == scanGenerated && pc.useCache:
		// A partially cached column set reads the raw file, still the source
		// of truth: an unpruned pass recaptures every column as a full shred
		// (Put overwrites the partial entries harmlessly).
		for _, c := range cols {
			if s := pc.lookup(tab.Name, c, true); s != nil {
				u.shreds = append(u.shreds, s)
			} else {
				u.shreds = nil
				break
			}
		}
		if u.shreds != nil {
			resident, rows = "cached columns of %s yield", u.shreds[0].Vector().Len()
		}
	}
	if resident != "" {
		if spans := splitRows(int64(rows), n); len(spans) >= min {
			u.spans = spans
		} else {
			pl.decline(fallbackSmallFile, resident+" fewer than %d morsels", tab.Name, min)
		}
		return nil
	}

	// Raw file: row ranges where rows are addressable (through the positional
	// structure, or natively), record-aligned byte ranges over a cold text
	// image.
	a, err := st.src.access(tab, u.bt.pos, cols, kind)
	if _, noReader := err.(noReaderError); noReader {
		pl.decline(fallbackUnsupportedFormat, "%s tool has no parallel %s scan", kind, tab.Format)
		return nil
	}
	if err != nil {
		return err
	}
	if spans := st.src.split(u.bt.pos, a.mode, n); len(spans) >= min {
		u.spans, u.a = spans, a
	} else {
		pl.decline(fallbackSmallFile, "%s splits into %d morsels (need %d)", tab.Name, len(spans), min)
	}
	return nil
}

// scanKind is the family of scan operators the strategy reads raw files with;
// ok is false for a strategy that has none.
func (pc *planCtx) scanKind() (kind scanKind, ok bool) {
	switch pc.strategy {
	case StrategyExternal:
		return scanExternal, true
	case StrategyInSitu:
		return scanGeneric, true
	case StrategyJIT, StrategyShreds:
		return scanGenerated, true
	}
	return 0, false
}

// captureActive reports whether raw-file scans of this query capture column
// shreds. A scan that eliminates rows cannot publish full columns, and the
// engine resolves that conflict in favour of the cache — the paper's warm-up
// arc must not silently degrade — so pushdown and zone-map skipping apply to
// raw-file scans only when capture is off. Scans over cached shreds absorb
// predicates unconditionally.
func (pc *planCtx) captureActive() bool {
	return pc.capture && pc.useCache
}

// addressable reports whether the unit's rows can be read by row id, as late
// scans do: through a populated positional map or structural index for text
// formats (built by a previous query), natively for binary and ROOT.
func (pc *planCtx) addressable(bt *boundTable) bool {
	if bt.st.src == nil {
		return false
	}
	a, err := bt.st.src.access(bt.st.tab, bt.pos, nil, scanGenerated)
	return err == nil && a.mode != jit.Sequential
}

// lookup asks the pool for a full shred of column col, or for the one shred
// it holds (a partial one is completed from the raw file at runtime). A plan
// asks about each column once: the answers are part of it.
func (pc *planCtx) lookup(table string, col int, full bool) *shred.Shred {
	if full {
		return pc.e.shreds.LookupFull(shred.Key{Table: table, Col: col})
	}
	return pc.e.shreds.Lookup(shred.Key{Table: table, Col: col})
}

// cascade decides the scans of unit u reading filter columns fc and output
// columns oc. Under StrategyShreds a one-part plan whose columns are not all
// full shreds cascades: the base scan reads the first filter column, a late
// scan fetches each further one right before its predicate, and output
// columns come last (one late scan each, or one for all with the multi-column
// option). Every other plan — all full shreds, or cut, whose parts carry no
// row ids past the exchange — reads all of its columns in the base scan.
func (pc *planCtx) cascade(u *unitPlan, filters []boundPred, fc, oc []int) error {
	tab := u.bt.st.tab
	late := pc.strategy == StrategyShreds && u.whole() && pc.addressable(u.bt) &&
		len(fc) > 0 && len(fc)+len(oc) > 1
	// cols are the cascade's columns in its order — the base column, then the
	// late ones — or the base scan's, sorted.
	cols := slices.Concat(fc, oc)
	if late && pc.multi {
		sortInts(cols[1:])
	}
	var found []*shred.Shred
	if late && pc.useCache {
		// The base column is asked for as a full shred, the late ones as any
		// shred. All full makes the plan one resident scan over them.
		found = make([]*shred.Shred, len(cols))
		for i, c := range cols {
			found[i] = pc.lookup(tab.Name, c, i == 0)
		}
		late = slices.ContainsFunc(found, func(s *shred.Shred) bool { return s == nil || !s.Full() })
		for i := 1; i < len(cols) && !late; i++ {
			for j := i; j > 0 && cols[j] < cols[j-1]; j-- {
				cols[j], cols[j-1] = cols[j-1], cols[j]
				found[j], found[j-1] = found[j-1], found[j]
			}
		}
	} else if !late {
		sortInts(cols)
	}
	base := cols
	switch {
	case late:
		base = cols[:1]
	case len(cols) == 0:
		// Zero-column batches cannot carry a row count (unfiltered COUNT(*)).
		base = []int{countColumn(tab)}
	}
	basePreds, latePreds := splitPreds(filters, base)
	var err error
	if u.base, err = pc.baseStep(u, base, late, basePreds, found[:min(len(found), len(base))]); err != nil {
		return err
	}
	switch {
	case !late:
		if len(latePreds) > 0 {
			return fmt.Errorf("engine: internal: unfiltered predicates in full-column plan")
		}
	case pc.multi:
		// One speculative late scan for every remaining column, then the
		// remaining predicates.
		u.late = []scanStep{pc.lateStep(u.bt, cols[1:], found[min(len(found), 1):], latePreds)}
	default:
		// Strict cascade: fetch each filter column, filter, repeat; then fetch
		// output columns one at a time.
		u.late = make([]scanStep, len(cols)-1)
		for i := range u.late {
			c := cols[i+1 : i+2]
			preds, _ := splitPreds(latePreds, c)
			u.late[i] = pc.lateStep(u.bt, c, found[min(len(found), i+1):min(len(found), i+2)], preds)
		}
	}
	return nil
}

// baseStep decides the base scan of unit u materialising cols (sorted),
// with the hidden row-id column if needRID. The access path absorbs what it
// can of cands, the rest is the step's filter. found are the pool's answers
// for cols if the cascade asked; a cut plan has cutUnit's.
func (pc *planCtx) baseStep(u *unitPlan, cols []int, needRID bool, cands []boundPred,
	found []*shred.Shred) (scanStep, error) {
	st, pos := u.bt.st, u.bt.pos
	tab := st.tab
	s := scanStep{spans: u.spans, cols: cols, filter: cands}

	// Memory tables (staged results) are strategy-independent; the DBMS
	// baseline scans what decide loaded.
	if tab.Format == catalog.Memory || pc.strategy == StrategyDBMS {
		s.resident = "memory:scan"
		if tab.Format != catalog.Memory {
			s.resident = "dbms:memscan"
		}
		s.vecs = make([]*vector.Vector, len(cols))
		for i, c := range cols {
			s.vecs[i] = st.loaded[c]
		}
		return s, nil
	}
	var ok bool
	if s.kind, ok = pc.scanKind(); !ok {
		return s, fmt.Errorf("engine: unknown strategy %d", pc.strategy)
	}
	if !u.whole() {
		found = u.shreds
	} else if len(found) == 0 && s.kind == scanGenerated && pc.useCache {
		found = make([]*shred.Shred, len(cols))
		for i, c := range cols {
			found[i] = pc.lookup(tab.Name, c, true)
		}
	}
	for _, sh := range found {
		if sh != nil {
			s.hits++
		}
	}

	// Everything cached: stream from the pool, no raw access at all.
	// Predicates on the cached columns are still absorbed — the scans evaluate
	// them vectorized and emit selection-vector batches — and, when the
	// synopsis covers exactly the shreds' rows, zone maps exclude batch ranges
	// inside every scan and whole spans of a cut one before dispatch.
	if s.hits == len(cols) {
		s.resident, s.emitRID = "shred:scan", needRID
		s.vecs = make([]*vector.Vector, len(cols))
		for i, sh := range found {
			s.vecs[i] = sh.Vector()
		}
		if pc.pushdown {
			s.filter, s.npush, s.push = nil, len(cands), make([]exec.Pred, len(cands))
			for i, bp := range cands {
				s.push[i] = exec.Pred{Col: slices.Index(cols, bp.col), Op: bp.op, I64: bp.i64, F64: bp.f64}
			}
		}
		// A range is excluded only when one predicate excludes every block it
		// overlaps: when the zone map excludes no block, the scans (and
		// morsels) are handed no test, and unsorted columns pay nothing.
		if syn := pos.syn; pc.zonemaps && syn != nil && syn.NRows() == int64(s.vecs[0].Len()) {
			skip := synSkip(syn, cands)
			s.zmap = skip != nil
			for b, i := syn.Bounds(), 0; s.zmap && i+1 < len(b) && s.skip == nil; i++ {
				if skip(b[i], b[i+1]) {
					s.skip = skip
				}
			}
		}
		s.spans, s.skipped = skipMorsels(u.spans, s.skip)
		return s, nil
	}

	// Read the other columns from the raw file, one scan per span, through the
	// access path the plug-in describes; the cached ones are appended by the
	// row ids the scan then emits. A refused access fails the plan where build
	// meets the scan.
	if s.hits > 0 {
		s.cols = nil
		for i, c := range cols {
			if found[i] != nil {
				s.cached, s.shreds = append(s.cached, c), append(s.shreds, found[i])
			} else {
				s.cols = append(s.cols, c)
			}
		}
	}
	s.emitRID, s.a = needRID || s.hits > 0, u.a
	if u.whole() {
		if s.a, s.err = st.src.access(tab, pos, s.cols, s.kind); s.err != nil {
			return s, nil
		}
	} else if s.a.recording && pc.useCache {
		// ShredsOf leaves the pool's statistics and recency alone.
		for _, sh := range pc.e.shreds.ShredsOf(tab.Name) {
			if sh.Full() && slices.Contains(cols, sh.Key().Col) {
				s.pooled = append(s.pooled, sh.Key().Col)
			}
		}
	}
	pushable, rest := splitPreds(cands, s.cols)

	// A generated scan may absorb the candidates on its columns, but a scan
	// that eliminates rows cannot publish full columns, and capture wins that
	// conflict (see captureActive): predicates are absorbed and zone maps
	// consulted only when this scan captures nothing. Predicates on appended
	// columns always stay in the filter.
	generated := s.kind == scanGenerated
	capturing := generated && pc.captureActive()
	if generated && pc.pushdown && !capturing {
		s.push = execPreds(pushable)
		s.npush, s.filter = len(pushable), rest
	}
	if generated && s.a.zoneSkip && (u.whole() || !s.a.recording) && pc.zonemaps && !capturing {
		s.skip = synSkip(pos.syn, cands)
	}
	s.zmap = s.skip != nil
	s.spans, s.skipped = skipMorsels(u.spans, s.skip)
	pruned := len(s.push) > 0 || s.skip != nil
	// A pruned scan's output is no full column: capture it keyed by row ids
	// instead, or not at all.
	s.tee, s.capture = capturing && !pruned, pruned && s.emitRID && pc.captureActive()

	// A pass that parses every value builds the table's zone maps on the side,
	// one fragment per span — unless a zone map already steers it (a skipped
	// range never advances a builder) or the current synopsis tracks all it
	// could observe. A fuller pass replaces a synopsis an earlier selective
	// query narrowed: the columns of the latest build are the ones current
	// queries filter on.
	if generated && s.a.buildsSyn && s.skip == nil && pc.zonemaps && pc.capture {
		s.synObs = observableCols(tab, s.cols, s.push, s.a.mode != jit.Sequential, pos.syn)
	}
	return s, nil
}

// lateStep decides a late scan appending cols of bt by row id: from the
// shred the pool holds (found, if the cascade asked), a partial one completed
// from the raw file, else read from the file and captured keyed by row id.
func (pc *planCtx) lateStep(bt *boundTable, cols []int, found []*shred.Shred, filter []boundPred) scanStep {
	s := scanStep{late: true, filter: filter}
	for i, c := range cols {
		var sh *shred.Shred
		if found != nil {
			sh = found[i]
		} else if pc.useCache {
			sh = pc.lookup(bt.st.tab.Name, c, false)
		}
		if sh != nil {
			s.cached, s.shreds = append(s.cached, c), append(s.shreds, sh)
		} else {
			s.cols = append(s.cols, c)
		}
	}
	sortInts(s.cols)
	s.hits = len(s.cached)
	s.capture = len(s.cols) > 0 && pc.captureActive()
	return s
}

// aggPlan is the aggregation decide fixed: one stage, or over the parts of a
// cut table a partial aggregate per part and a final one above the exchange.
// COUNT partials merge by summation, MIN/MAX and integer SUM by themselves,
// float SUM as an exact (Sum, SumErr) pair by MergeSum; AVG is a final SUM
// and COUNT divided above the final aggregate, and HAVING filters above that.
type aggPlan struct {
	on, twoStage bool // on: the query aggregates, else it only projects
	// first is the aggregate over the pipeline, one-stage or partial; its Col
	// names the aggregate (aggItem) whose input it reads, -1 for COUNT(*),
	// until build puts the input's column there.
	// finals combine the partials over the exchange stream: group keys, then
	// the partials.
	first, finals []exec.AggSpec
	divides       []divSpec
	// guard is the partial COUNT whose rows an ungrouped two-stage aggregate
	// filters its empty partials by (-1: none).
	guard int
	// out are the select items' columns of the output, which having filters.
	out    []int
	having []exec.Pred
}

type divSpec struct {
	num, den int // final-aggregate spec indexes
	name     string
}

// aggItem is the i-th aggregate of the select list followed by HAVING.
func aggItem(r *resolvedQuery, i int) boundItem {
	if i < len(r.items) {
		return r.items[i]
	}
	return r.having[i-len(r.items)].item
}

// decideAgg decomposes the query's aggregates, in two stages with twoStage
// set.
func decideAgg(r *resolvedQuery, twoStage bool) (aggPlan, error) {
	a := aggPlan{on: len(r.groupBy) > 0 || len(r.having) > 0, twoStage: twoStage, guard: -1}
	for _, it := range r.items {
		a.on = a.on || it.isAgg
	}
	if !a.on {
		return a, nil
	}
	// Each registry deduplicates identical entries.
	ng := len(r.groupBy)
	add := func(specs *[]exec.AggSpec, s exec.AggSpec) int {
		i := slices.IndexFunc(*specs, func(o exec.AggSpec) bool { return o.Func == s.Func && o.Col == s.Col && o.Col2 == s.Col2 })
		if i < 0 {
			i, *specs = len(*specs), append(*specs, s)
		}
		return i
	}
	finals := &a.first
	if twoStage {
		finals = &a.finals
	}
	// partial registers a partial and returns its exchange-stream column.
	partial := func(f exec.AggFunc, col int, name string) int {
		return ng + add(&a.first, exec.AggSpec{Func: f, Col: col, As: name})
	}
	final := func(f exec.AggFunc, col, col2 int, name string) int {
		return add(finals, exec.AggSpec{Func: f, Col: col, Col2: col2, As: name})
	}
	divide := func(num, den int, name string) int {
		i := slices.IndexFunc(a.divides, func(d divSpec) bool { return d.num == num && d.den == den })
		if i < 0 {
			i, a.divides = len(a.divides), append(a.divides, divSpec{num, den, name})
		}
		return i
	}
	// decompose registers the specs implementing one query aggregate and
	// returns its column in the output, less the group keys; n is the number
	// of finals, which the divide columns follow.
	type at struct{ idx, div int }
	decompose := func(it boundItem) (at, error) {
		col, isFloat := -1, false
		if !it.star {
			for col = 0; aggItem(r, col).ref != it.ref; col++ {
			}
			isFloat = r.tables[it.ref.table].st.tab.Schema[it.ref.col].Type == vector.Float64
		}
		switch {
		case !twoStage:
			return at{idx: final(it.agg, col, -1, it.name)}, nil
		case it.agg == exec.Count:
			return at{idx: final(exec.Sum, partial(exec.Count, col, it.name), -1, it.name)}, nil
		case it.agg == exec.Min || it.agg == exec.Max || it.agg == exec.Sum && !isFloat:
			return at{idx: final(it.agg, partial(it.agg, col, it.name), -1, it.name)}, nil
		case it.agg == exec.Sum:
			hi, lo := partial(exec.Sum, col, it.name), partial(exec.SumErr, col, it.name+"#err")
			return at{idx: final(exec.MergeSum, hi, lo, it.name)}, nil
		case it.agg == exec.Avg && isFloat:
			hi, lo := partial(exec.Sum, col, it.name+"#sum"), partial(exec.SumErr, col, it.name+"#err")
			n := partial(exec.Count, -1, "#rows")
			return at{div: 1 + divide(final(exec.MergeSum, hi, lo, it.name+"#sum"), final(exec.Sum, n, -1, "#rows"), it.name)}, nil
		case it.agg == exec.Avg:
			s, n := partial(exec.Sum, col, it.name+"#sum"), partial(exec.Count, -1, "#rows")
			return at{div: 1 + divide(final(exec.Sum, s, -1, it.name+"#sum"), final(exec.Sum, n, -1, "#rows"), it.name)}, nil
		}
		return at{}, fmt.Errorf("engine: internal: no parallel form for aggregate %s", it.agg)
	}

	// HAVING aggregates may add hidden specs; a bare GROUP BY projection
	// (SELECT g FROM t GROUP BY g) stages a hidden COUNT so the aggregate has
	// a spec, which the projection drops.
	ats := make([]at, len(r.items)+len(r.having))
	for i := range ats {
		if it := aggItem(r, i); it.isAgg || i >= len(r.items) {
			var err error
			if ats[i], err = decompose(it); err != nil {
				return a, err
			}
		}
	}
	if len(*finals) == 0 {
		_, _ = decompose(boundItem{agg: exec.Count, isAgg: true, star: true, name: "#rows"}) // COUNT(*) has both forms
	}
	// Every output position is now known: the final aggregate emits the group
	// keys then the finals, and each Divide appends one column above that. A
	// bare group column sits at its index in groupBy.
	a.out = make([]int, len(r.items))
	for i := range ats {
		pos := ng + ats[i].idx
		if ats[i].div > 0 {
			pos = ng + len(*finals) + ats[i].div - 1
		}
		if i >= len(r.items) {
			h := r.having[i-len(r.items)]
			a.having = append(a.having, exec.Pred{Col: pos, Op: h.op, I64: h.i64, F64: h.f64})
		} else if r.items[i].isAgg {
			a.out[i] = pos
		} else {
			a.out[i] = slices.Index(r.groupBy, r.items[i].ref)
		}
	}
	if twoStage && ng == 0 {
		// Ungrouped partials emit one row even when their part filtered down
		// to nothing (COUNT = 0 with identity-less zero aggregates); those
		// rows must not feed MIN/MAX/SUM merging. Reuse any registered COUNT
		// partial as the guard, or stage a hidden one. Grouped partials only
		// emit groups that saw rows, so no guard is needed there.
		if i := slices.IndexFunc(a.first, func(s exec.AggSpec) bool { return s.Func == exec.Count }); i >= 0 {
			a.guard = i
		} else {
			a.guard = partial(exec.Count, -1, "#partial_rows")
		}
	}
	return a, nil
}

// plan decides the query, then builds it.
func (pc *planCtx) plan(r *resolvedQuery) (exec.Operator, error) {
	pl, err := pc.decide(r)
	if err != nil {
		return nil, err
	}
	return pc.build(r, &pl)
}

// build turns decide's value into operators, spans, probes and publication
// hooks, and renders the access paths from it. A workers > 1 query that runs
// as one part says why — Explain, Stats, the trace and an obs event carry the
// reason, so the fallback is never silent.
func (pc *planCtx) build(r *resolvedQuery, pl *plan) (exec.Operator, error) {
	pc.stats.LoadedTables = append(pc.stats.LoadedTables, pl.loaded...)
	if pl.reason != "" {
		pc.stats.ParallelFallback, pc.stats.ParallelFallbackDetail = pl.reason, pl.detail
		s := pc.span("parallel-fallback")
		s.AddAttr("reason", pl.reason)
		s.AddAttr("detail", pl.detail)
		s.End()
	}
	pc.paths(r, pl)
	var p *pipe
	var err error
	if r.join != nil {
		p, err = pc.buildJoin(r, pl)
	} else {
		p, err = pc.buildTable(r, pl, 0)
	}
	if err != nil {
		return nil, err
	}
	return pc.finish(r, pl, p)
}

// sides are the query's tables in build order: a cut join builds its shared
// build side first.
func (pl *plan) sides() []int {
	if len(pl.tables) == 2 && pl.par {
		return sideOrders[2]
	}
	return sideOrders[len(pl.tables)-1]
}

var sideOrders = [...][]int{{0}, {0, 1}, {1, 0}}

// paths renders the plan's access-path labels into the record, in the order
// build meets the scans, and marks each step with its own: a scan's span is
// named after its first label and carries the others. It stops at a refused
// scan, where build stops.
func (pc *planCtx) paths(r *resolvedQuery, pl *plan) {
	pathf := func(format string, args ...any) {
		pc.stats.AccessPaths = append(pc.stats.AccessPaths, fmt.Sprintf(format, args...))
	}
	failed := false
	step := func(tab string, s *scanStep) {
		if failed = failed || s.err != nil; failed {
			return
		}
		s.paths[0] = len(pc.stats.AccessPaths)
		par := ""
		if !s.late && (len(s.spans) != 1 || s.spans[0] != wholeTable) {
			par = fmt.Sprintf("par[%d]:", len(s.spans))
		}
		switch {
		case s.late && len(s.cached) > 0:
			pathf("shred:late(%s)", shredKeys(tab, s.cached))
		case s.resident != "":
			pathf("%s%s(%s)", par, s.resident, tab)
		case !s.late:
			pathf("%s%s:%s(%s)", par, s.kind, s.a.label, tab)
		}
		if s.late && len(s.cols) > 0 {
			pathf("jit:late(%s)", shredKeys(tab, s.cols))
		}
		if s.npush > 0 {
			pathf("push[%d](%s)", s.npush, tab)
		}
		if s.zmap {
			pathf("zmap(%s)", tab)
		}
		if !s.late && len(s.cached) > 0 {
			pathf("shred:append(%s)", tab)
		}
		s.paths[1] = len(pc.stats.AccessPaths)
	}
	for _, t := range pl.sides() {
		for i := range pl.tables[t].units {
			if u := &pl.tables[t].units[i]; u.spans != nil {
				step(u.bt.st.tab.Name, &u.base)
				for j := range u.late {
					step(u.bt.st.tab.Name, &u.late[j])
				}
			}
		}
	}
	if r.join != nil && pl.par {
		pathf("par:hashjoin(%s,%s)", r.tables[0].st.tab.Name, r.tables[1].st.tab.Name)
	}
	for t := range pl.tables {
		if pl.tables[t].after != nil {
			step(r.tables[t].st.tab.Name, pl.tables[t].after)
		}
	}
}

// pipe is a partially built pipeline over one or two tables, tracking where
// each bound column currently lives in the batch and where each table's
// hidden row-id column is (-1 if absent).
type pipe struct {
	// ops is the pipeline, once per part: one operator, or with par set the
	// inputs of an exchange — one per span of a cut table, all of one layout —
	// until gather merges them.
	ops []exec.Operator
	par bool
	pos map[boundRef]int
	rid map[int]int
	// span is the trace span of the pipeline's topmost wrapped operator
	// (nil when tracing is off). Wrapping sites re-parent it under each new
	// span so the rendered trace recovers the plan tree.
	span *obs.Span
}

func (p *pipe) width() int { return len(p.ops[0].Schema()) }

// layout registers table t's columns at the head of the batch, in order, and
// its row-id column (-1: none).
func (p *pipe) layout(t int, order []int, ridIdx int) {
	for i, c := range order {
		p.pos[boundRef{t, c}] = i
	}
	p.rid[t] = ridIdx
}

// traceWrap wraps the pipe's current operator in a named span and makes it
// the pipe's top span. No-op (returns nil) when tracing is off, and on the
// inputs of an exchange: gather gives each a span over the whole part.
func (pc *planCtx) traceWrap(p *pipe, name string) *obs.Span {
	if pc.trace == nil || p.par {
		return nil
	}
	s := pc.trace.NewSpan(name)
	p.span.SetParent(s)
	p.span = s
	p.ops[0] = exec.WithSpan(p.ops[0], s)
	return s
}

// opSpan wraps a free-standing operator in a named span, re-parenting the
// given child spans beneath it. Returns the operator unchanged (and a nil
// span) when tracing is off.
func (pc *planCtx) opSpan(op exec.Operator, name string, children ...*obs.Span) (exec.Operator, *obs.Span) {
	if pc.trace == nil {
		return op, nil
	}
	s := pc.trace.NewSpan(name)
	for _, c := range children {
		c.SetParent(s)
	}
	return exec.WithSpan(op, s), s
}

// buildTable builds table t of the query: its one unit, or its dataset.
func (pc *planCtx) buildTable(r *resolvedQuery, pl *plan, t int) (*pipe, error) {
	if r.tables[t].st.ds != nil {
		return pc.buildDataset(r, t, &pl.tables[t])
	}
	return pc.buildUnit(t, &pl.tables[t].units[0])
}

// buildUnit builds the scans of unit u, one operator per span, as table t of
// a new pipeline.
func (pc *planCtx) buildUnit(t int, u *unitPlan) (*pipe, error) {
	p := &pipe{pos: make(map[boundRef]int), rid: map[int]int{t: -1}, par: !u.whole()}
	if err := pc.buildStep(p, t, u.bt, &u.base); err != nil {
		return nil, err
	}
	for i := range u.late {
		if err := pc.buildStep(p, t, u.bt, &u.late[i]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// buildStep builds one scan of table t onto p, then its filter. A one-part
// base scan checks for cancellation under every batch, and a traced one-part
// scan gets a span named after its access path, holding its prune probes; the
// parts of a cut one get both from their exchange.
func (pc *planCtx) buildStep(p *pipe, t int, bt *boundTable, s *scanStep) error {
	probes := len(pc.probes)
	if s.late {
		if err := pc.buildLate(p, t, bt, s); err != nil {
			return err
		}
	} else {
		if err := pc.buildBase(p, t, bt, s); err != nil {
			return err
		}
		if bt.st.src != nil { // not a memory table
			pc.scans = append(pc.scans, scanHeat{st: bt.st, first: probes, end: len(pc.probes)})
		}
		if pc.ctx != nil && !p.par {
			p.ops[0] = exec.WithContext(p.ops[0], pc.ctx)
		}
	}
	labels := pc.stats.AccessPaths[s.paths[0]:s.paths[1]]
	if span := pc.traceWrap(p, labels[0]); span != nil {
		for _, l := range labels[1:] {
			span.AddAttr("path", l)
		}
		for i := probes; i < len(pc.probes); i++ {
			pc.probes[i].span = span
		}
	}
	return pc.applyFilter(p, t, s.filter)
}

// buildBase builds a base scan: one resident or raw-file scan per span, its
// capture — whole columns, or keyed by the row ids it emits — and the cached
// columns appended by them.
func (pc *planCtx) buildBase(p *pipe, t int, bt *boundTable, s *scanStep) error {
	if s.err != nil {
		return s.err
	}
	tab := bt.st.tab
	pc.hit(tab.Name, "shred", s.hits)
	if pc.stats.PredsPushed += s.npush; s.zmap {
		pc.hit(tab.Name, "synopsis", 1)
	}
	pc.stats.MorselsSkipped += s.skipped
	var err error
	if s.resident == "" {
		err = pc.rawScans(p, bt, s)
	} else if p.ops, err = residentScans(tab, s.cols, s.vecs, s.spans, s.push, s.skip, pc.e.cfg.BatchSize, s.emitRID); err == nil && (len(s.push) > 0 || s.skip != nil) {
		for _, op := range p.ops {
			pc.probes = append(pc.probes, pruneProbe{scan: op.(*exec.MemScan)})
		}
	}
	if err != nil {
		return err
	}
	ridIdx := -1
	if s.emitRID {
		ridIdx = len(s.cols)
	}
	p.layout(t, s.cols, ridIdx)
	if s.tee {
		pc.captureCols(p, t, bt, s, -1)
	} else if s.capture {
		pc.captureCols(p, t, bt, s, ridIdx)
	}
	if len(s.cached) > 0 {
		return appendLate(p, t, tab, ridIdx, s.cached, shred.NewLateFill(s.shreds, nil).Fetch)
	}
	return nil
}

// rawScans builds one scan per span over a table's raw file through the
// step's access path, for every format and either plan shape: synopsis
// builders and the merge hook that publishes the
// structures the scans built on the side.
func (pc *planCtx) rawScans(p *pipe, bt *boundTable, s *scanStep) error {
	st, tab := bt.st, bt.st.tab
	var frags []fragment
	var synFrags []*synopsis.Builder
	p.ops = make([]exec.Operator, 0, len(s.spans))
	base := scanReq{kind: s.kind, mode: s.a.mode, cols: s.cols, emitRID: s.emitRID, batch: pc.e.cfg.BatchSize,
		track: true, tee: s.tee, pooled: s.pooled}
	for _, sp := range s.spans {
		hint := rowHint(st, s.a, sp)
		req := base
		req.span, req.rowHint, req.push = sp, hint, jit.Pushdown{Preds: s.push, Skip: s.skip}
		if s.synObs != nil {
			req.push.Syn = synopsis.NewBuilder(pc.blockRows(), s.synObs)
			synFrags = append(synFrags, req.push.Syn)
		}
		op, frag, err := st.src.scan(tab, bt.pos, req)
		if err != nil {
			return err
		}
		if frag != nil {
			frags = append(frags, frag)
		}
		if ps, ok := op.(pushStats); ok {
			pc.probes = append(pc.probes, pruneProbe{scan: ps})
		}
		p.ops = append(p.ops, op)
	}
	if s.a.mode == jit.ViaMap {
		pc.hit(tab.Name, s.a.structure, 1)
	}
	if len(frags) == 0 && len(synFrags) == 0 {
		return nil
	}
	pc.onMerge = append(pc.onMerge, func() error {
		if len(frags) > 0 {
			// The scans visited every row: the table's row count is known
			// from here on, whether or not anything may be published. A
			// recording over a positional structure counts only when it
			// covers the table alone; a row range's counts no row, and
			// publish links the ranges' recordings.
			var rows int64
			for _, f := range frags {
				rows += f.NRows()
			}
			st.learnRows(rows)
			if s.a.structure != "" && pc.capture && (rows > 0 || s.a.mode == jit.ViaMap) {
				bytes, err := st.src.publish(st, frags, s.spans)
				if err != nil {
					return err
				}
				pc.captured(s.a.structure, tab, bytes)
			}
		}
		if len(synFrags) > 0 {
			fins := make([]*synopsis.Synopsis, len(synFrags))
			for i, fb := range synFrags {
				fins[i] = fb.Finish()
			}
			syn := fins[0]
			if len(fins) > 1 {
				syn = synopsis.Concat(fins)
			}
			if syn != nil && (st.nrows < 0 || syn.NRows() == st.nrows) {
				st.syn.set(syn)
				pc.captured("synopsis", tab, syn.MemoryFootprint())
			}
		}
		return nil
	})
	return nil
}

// buildLate builds a late scan appending the step's columns to table t of p:
// the cached ones from their shreds, a partial shred completed from the raw
// file by the table's late reader, then the file-read ones by that reader.
func (pc *planCtx) buildLate(p *pipe, t int, bt *boundTable, s *scanStep) error {
	st, tab := bt.st, bt.st.tab
	ridIdx := p.rid[t]
	if ridIdx < 0 {
		return fmt.Errorf("engine: internal: late scan without row ids for table %q", tab.Name)
	}
	pc.hit(tab.Name, "shred", s.hits)
	var fetch exec.Fetch
	if len(s.cached) > 0 {
		raw := make([]exec.Fetch, len(s.shreds))
		for i, sh := range s.shreds {
			if !sh.Full() {
				var err error
				if raw[i], err = st.src.late(tab, bt.pos, s.cached[i:i+1]); err != nil {
					return err
				}
			}
		}
		fill := shred.NewLateFill(s.shreds, raw)
		fetch = fill.Fetch
		pc.probes = append(pc.probes, pruneProbe{fill: fill})
	}
	if len(s.cols) > 0 {
		file, err := st.src.late(tab, bt.pos, s.cols)
		if err != nil {
			return err
		}
		if cached, k := fetch, len(s.cached); cached == nil {
			fetch = file
		} else {
			fetch = func(rids []int64, outs []*vector.Vector) error {
				if err := cached(rids, outs[:k]); err != nil {
					return err
				}
				return file(rids, outs[k:])
			}
		}
	}
	if err := appendLate(p, t, tab, ridIdx, slices.Concat(s.cached, s.cols), fetch); err != nil {
		return err
	}
	if s.capture {
		pc.captureCols(p, t, bt, s, ridIdx)
	}
	return nil
}

// captureCols tees the step's columns of table t, as p carries them, into the
// shred pool when the query succeeds: whole columns, each part allocating for
// its span's row hint, or (rid >= 0) keyed by the row ids at rid, the rows a
// pruned or late scan read.
func (pc *planCtx) captureCols(p *pipe, t int, bt *boundTable, s *scanStep, rid int) {
	pos := make([]int, len(s.cols))
	for i, c := range s.cols {
		pos[i] = p.pos[boundRef{t, c}]
	}
	caps := make([]*morselCapture, len(p.ops))
	for i, op := range p.ops {
		caps[i] = &morselCapture{child: op, pos: pos, rid: rid}
		if rid < 0 {
			caps[i].reserve = rowHint(bt.st, s.a, s.spans[i])
		}
		p.ops[i] = caps[i]
	}
	pc.tees = append(pc.tees, tee{bt.st.tab, s.cols, caps})
}

// appendLate stacks on p the late scan appending cols of table t, fetched by
// fetch: the one place the planner builds a late scan.
func appendLate(p *pipe, t int, tab *catalog.Table, ridIdx int, cols []int, fetch exec.Fetch) error {
	base := p.width()
	ls, err := exec.NewLateScan(p.ops[0], ridIdx, insitu.RowIDColumn, colSchema(tab, cols), fetch)
	if err != nil {
		return err
	}
	p.ops[0] = ls
	for i, c := range cols {
		p.pos[boundRef{t, c}] = base + i
	}
	return nil
}

// buildJoin builds a two-table query: table 0 is the probe side, table 1 the
// build side, collected into one hash table (exec.SharedBuild) that the serial
// plan probes once and a cut plan once per probe-side part on the exchange's
// pool. Probe parts stream in file order, so the joined stream is
// byte-identical to the serial plan's; an aggregating cut join leaves its
// probe parts to finish, which aggregates each before the exchange.
func (pc *planCtx) buildJoin(r *resolvedQuery, pl *plan) (*pipe, error) {
	var sides [2]*pipe
	for _, t := range pl.sides() {
		var err error
		if sides[t], err = pc.buildTable(r, pl, t); err != nil {
			return nil, err
		}
	}
	left, right := sides[0], sides[1]
	lk, lok := left.pos[boundRef{0, r.join.leftCol}]
	rk, rok := right.pos[boundRef{1, r.join.rightCol}]
	if !lok || !rok {
		return nil, fmt.Errorf("engine: internal: join key not materialised")
	}
	// Merge layouts: right positions shift by the left width.
	merged := &pipe{pos: left.pos, rid: map[int]int{0: -1, 1: -1}}
	off := left.width()
	for ref, i := range right.pos {
		merged.pos[ref] = off + i
	}
	if i, ok := left.rid[0]; ok && i >= 0 {
		merged.rid[0] = i
	}
	if i, ok := right.rid[1]; ok && i >= 0 {
		merged.rid[1] = off + i
	}
	// The serial plan is the one-probe case of the shared build. A cut one
	// feeds the build side's parts to a private exchange under the shared
	// build, whose parse overlaps the probe scans.
	workers := 1
	if pl.par {
		if err := pc.gather(right, "build-exchange"); err != nil {
			return nil, err
		}
		workers = pc.workers
	}
	build, err := exec.NewSharedBuild(right.ops[0], rk, workers)
	if err != nil {
		return nil, err
	}
	for i, part := range left.ops {
		if left.ops[i], err = exec.NewHashProbe(part, build, lk); err != nil {
			return nil, err
		}
	}
	switch {
	case pl.par && pl.agg.on:
		// finish puts a partial aggregate on each probe part; the exchange
		// above them adopts the build side's span.
		merged.ops, merged.span, merged.par = left.ops, right.span, true
	case pl.par:
		err = pc.gather(left, "probe-exchange", right.span)
		merged.ops, merged.span = left.ops, left.span
	default:
		jop, jspan := pc.opSpan(left.ops[0], "hashjoin", left.span, right.span)
		merged.ops, merged.span = []exec.Operator{jop}, jspan
	}
	for t := 0; t < 2 && err == nil; t++ {
		if after := pl.tables[t].after; after != nil {
			err = pc.buildStep(merged, t, r.tables[t], after)
		}
	}
	return merged, err
}

// finish stacks the aggregation decide fixed — in one stage, or partials per
// part, the exchange and the final stage — with its divides and HAVING
// filters, or just the exchange, under the final projection.
func (pc *planCtx) finish(r *resolvedQuery, pl *plan, p *pipe) (exec.Operator, error) {
	names := make([]string, len(r.items))
	for i, it := range r.items {
		names[i] = it.name
	}
	a := &pl.agg
	if !a.on {
		if err := pc.gather(p, "exchange"); err != nil {
			return nil, err
		}
		idxs := make([]int, len(r.items))
		for i, it := range r.items {
			pos, ok := p.pos[it.ref]
			if !ok {
				return nil, fmt.Errorf("engine: internal: output column %q not materialised", it.name)
			}
			idxs[i] = pos
		}
		pr, err := exec.NewProject(p.ops[0], idxs, names)
		if err != nil {
			return nil, err
		}
		op, _ := pc.opSpan(pr, "project", p.span)
		return op, nil
	}

	groupIdx := make([]int, len(r.groupBy))
	for i, g := range r.groupBy {
		pos, ok := p.pos[g]
		if !ok {
			return nil, fmt.Errorf("engine: internal: group column not materialised")
		}
		groupIdx[i] = pos
	}
	// The first stage reads its inputs where the pipeline carries them.
	for i := range a.first {
		if s := &a.first[i]; s.Col >= 0 {
			pos, ok := p.pos[aggItem(r, s.Col).ref]
			if !ok {
				return nil, fmt.Errorf("engine: internal: aggregate input %q not materialised", s.As)
			}
			s.Col = pos
		}
	}
	finals, stage := a.first, "aggregate"
	if a.twoStage {
		for i, part := range p.ops {
			agg, err := exec.NewAggregate(part, a.first, groupIdx)
			if err != nil {
				return nil, err
			}
			agg.MarkPartial() // a grouped partial that does not reduce passes its rows on
			p.ops[i] = agg
		}
		name := "exchange"
		if r.join != nil {
			name = "probe-exchange" // the parts probe the shared build
		}
		if err := pc.gather(p, name); err != nil {
			return nil, err
		}
		if a.guard >= 0 {
			f, err := exec.NewFilter(p.ops[0], []exec.Pred{{Col: a.guard, Op: exec.Gt, I64: 0}})
			if err != nil {
				return nil, err
			}
			p.ops[0] = f
		}
		// The exchange stream leads with the group keys.
		groupIdx = make([]int, len(groupIdx))
		for i := range groupIdx {
			groupIdx[i] = i
		}
		finals, stage = a.finals, "final-aggregate"
	}
	agg, err := exec.NewAggregate(p.ops[0], finals, groupIdx)
	if err != nil {
		return nil, err
	}
	out, top := pc.opSpan(agg, fmt.Sprintf("%s[groups=%d aggs=%d]", stage, len(groupIdx), len(finals)), p.span)
	for _, d := range a.divides {
		if out, err = exec.NewDivide(out, len(groupIdx)+d.num, len(groupIdx)+d.den, d.name); err != nil {
			return nil, err
		}
	}
	if len(a.divides) > 0 {
		out, top = pc.opSpan(out, fmt.Sprintf("divide[%d]", len(a.divides)), top)
	}
	if len(a.having) > 0 {
		f, err := exec.NewFilter(out, a.having)
		if err != nil {
			return nil, err
		}
		out, top = pc.opSpan(f, fmt.Sprintf("having[%d]", len(a.having)), top)
	}
	// Re-order to the SELECT list.
	pr, err := exec.NewProject(out, a.out, names)
	if err != nil {
		return nil, err
	}
	fin, _ := pc.opSpan(pr, "project", top)
	return fin, nil
}

// execPreds converts bound predicates to their exec form keyed by the table
// column index (the form pushed-down scans and zone maps consume).
func execPreds(bps []boundPred) []exec.Pred {
	out := make([]exec.Pred, len(bps))
	for i, bp := range bps {
		out[i] = exec.Pred{Col: bp.col, Op: bp.op, I64: bp.i64, F64: bp.f64}
	}
	return out
}

// synSkip compiles the zone-map exclusion closure for a scan over rows of a
// table: any conjunct excluding a row range (tracked columns only) lets the
// whole range be skipped. nil when the synopsis covers no predicate column.
func synSkip(syn *synopsis.Synopsis, preds []boundPred) func(start, end int64) bool {
	if syn == nil {
		return nil
	}
	var sps []exec.Pred
	for _, bp := range preds {
		if syn.Tracked(bp.col) {
			sps = append(sps, exec.Pred{Col: bp.col, Op: bp.op, I64: bp.i64, F64: bp.f64})
		}
	}
	if len(sps) == 0 {
		return nil
	}
	return func(start, end int64) bool {
		for _, p := range sps {
			if syn.Excludes(p, start, end) {
				return true
			}
		}
		return false
	}
}

// observableCols selects the scanned columns a synopsis builder may observe:
// those the generated code parses for every row — all of them without pushed
// predicates, else the predicate columns of a vectorized path, or of a
// short-circuiting sequential one only when there is one. nil when the
// current synopsis cur already tracks them all.
func observableCols(tab *catalog.Table, cols []int, absorbed []exec.Pred, vectorized bool,
	cur *synopsis.Synopsis) map[int]vector.Type {
	if len(absorbed) > 0 {
		cols = nil
		for _, p := range absorbed {
			if !slices.Contains(cols, p.Col) {
				cols = append(cols, p.Col)
			}
		}
		if !vectorized && len(cols) > 1 {
			return nil
		}
	}
	obs := make(map[int]vector.Type)
	covered := cur != nil
	for _, c := range cols {
		if t := tab.Schema[c].Type; t == vector.Int64 || t == vector.Float64 {
			obs[c], covered = t, covered && cur.Tracked(c)
		}
	}
	if covered || len(obs) == 0 {
		return nil
	}
	return obs
}

// blockRows returns the configured zone-map block granularity.
func (pc *planCtx) blockRows() int64 {
	if pc.e.cfg.SynopsisBlockRows > 0 {
		return int64(pc.e.cfg.SynopsisBlockRows)
	}
	return synopsis.DefaultBlockRows
}

// rowHint is the row count to allocate one scan's positional fragment and
// full-column captures for: a row range's length, the table's known count, or
// the access's estimate over the span's bytes; 0 under one batch.
func rowHint(st *tableState, a access, sp span) int {
	var n int64
	switch {
	case sp != wholeTable && a.mode != jit.Sequential:
		n = sp.hi - sp.lo
	case sp == wholeTable && st.nrows >= 0:
		n = st.nrows
	case a.estRows != nil:
		n = a.estRows(sp)
	}
	if n < vector.DefaultBatchSize {
		return 0
	}
	return int(n)
}

// splitPreds partitions predicates into those whose column is in cols and
// the rest.
func splitPreds(preds []boundPred, cols []int) (in, out []boundPred) {
	for _, p := range preds {
		if slices.Contains(cols, p.col) {
			in = append(in, p)
		} else {
			out = append(out, p)
		}
	}
	return in, out
}

// applyFilter adds a Filter operator for preds to every part (no-op when
// empty).
func (pc *planCtx) applyFilter(p *pipe, t int, preds []boundPred) error {
	if len(preds) == 0 {
		return nil
	}
	eps := make([]exec.Pred, len(preds))
	for i, bp := range preds {
		pos, ok := p.pos[boundRef{t, bp.col}]
		if !ok {
			return fmt.Errorf("engine: internal: filter column %d not materialised", bp.col)
		}
		eps[i] = exec.Pred{Col: pos, Op: bp.op, I64: bp.i64, F64: bp.f64}
	}
	for i, op := range p.ops {
		f, err := exec.NewFilter(op, eps)
		if err != nil {
			return err
		}
		p.ops[i] = f
	}
	pc.traceWrap(p, fmt.Sprintf("filter[%d]", len(preds)))
	return nil
}

func shredKeys(table string, cols []int) string {
	s := table + ".cols"
	for _, c := range cols {
		s += fmt.Sprintf("%d,", c)
	}
	return s
}
