package engine

import (
	"fmt"

	"rawdb/internal/catalog"
	"rawdb/internal/dataset"
	"rawdb/internal/exec"
	"rawdb/internal/obs"
	"rawdb/internal/vector"
)

// This file is the dataset layer: one logical table over a directory (or
// glob) of raw files. Each partition of the manifest is backed by its own
// tableState — never registered in the catalog, guarded by the parent's
// query lock — so every single-file mechanism (JIT access paths, positional
// maps, structural indexes, column shreds, zone-map synopses, the vault)
// applies per partition under a per-partition namespace ("<table>#<partID>").
// The planner treats partitions as independent scan units: the serial plan
// concatenates per-partition pipelines in manifest order (exec.Concat), the
// parallel plan interleaves morsels across partitions on one worker pool,
// and partitions whose synopsis excludes a predicate are pruned before their
// file is ever opened (Stats.PartitionsSkipped).

// datasetState is the dataset-specific state of a parent tableState,
// guarded by the parent's qmu like the rest of the per-table state.
type datasetState struct {
	// pattern is the registration directory/glob; empty for in-memory
	// datasets (RegisterDatasetParts), which never refresh.
	pattern string
	// override is the forced partition format, or dataset.AutoFormat.
	override catalog.Format
	// manifest is the current partition list; parts is aligned with it.
	manifest *dataset.Manifest
	parts    []*tableState
	// dirty marks the manifest changed since its last vault save.
	dirty bool
}

// RegisterDataset registers a directory or glob of raw files as one logical
// table. Each file becomes a partition whose format is inferred from its
// extension (.csv, .json/.jsonl/.ndjson, .bin); mixed formats within one
// dataset are fine. Registration records metadata only — files are opened
// lazily by the queries that need them — and the manifest is refreshed at
// every query start, so files arriving in (or vanishing from) the directory
// are picked up without re-registration.
func (e *Engine) RegisterDataset(name, pattern string, schema []catalog.Column) error {
	return e.registerDataset(name, pattern, dataset.AutoFormat, schema)
}

// RegisterDatasetFormat is RegisterDataset with every partition forced to
// one format regardless of extension (CSV, JSON or Binary).
func (e *Engine) RegisterDatasetFormat(name, pattern string, format catalog.Format, schema []catalog.Column) error {
	return e.registerDataset(name, pattern, format, schema)
}

func (e *Engine) registerDataset(name, pattern string, format catalog.Format, schema []catalog.Column) error {
	m, err := dataset.Discover(pattern, format)
	if err != nil {
		return err
	}
	tab := &catalog.Table{Name: name, Path: pattern, Format: catalog.Dataset, Schema: schema}
	if err := e.cat.Register(tab); err != nil {
		return err
	}
	st := &tableState{tab: tab, nrows: -1,
		ds: &datasetState{pattern: pattern, override: format, manifest: m}}
	e.datasetWarmup(st)
	e.mu.Lock()
	e.tables[name] = st
	e.mu.Unlock()
	return nil
}

// DataPart is one in-memory partition of RegisterDatasetParts.
type DataPart struct {
	Format catalog.Format
	Data   []byte
}

// RegisterDatasetParts registers a dataset whose partitions are in-memory
// raw images (tests, benchmarks, differential harnesses). Partition order is
// the slice order; the manifest never refreshes.
func (e *Engine) RegisterDatasetParts(name string, parts []DataPart, schema []catalog.Column) error {
	m := &dataset.Manifest{}
	srcs := make([]source, len(parts))
	for i, dp := range parts {
		// A format backs an in-memory partition if its plug-in reads the
		// image as handed over.
		src, err := newSource(dp.Format, e.cfg.PosMapPolicy, present(dp.Data))
		if err != nil {
			return fmt.Errorf("engine: dataset partition %d: %w", i, err)
		}
		if src == nil || src.image() == nil {
			return fmt.Errorf("engine: dataset partition %d: format %s cannot back a partition", i, dp.Format)
		}
		srcs[i] = src
		id := fmt.Sprintf("part%04d", i)
		m.Parts = append(m.Parts, dataset.Partition{
			Path: "mem:" + id, ID: id, Format: dp.Format,
			Size: int64(len(dp.Data)), Rows: -1,
		})
	}
	tab := &catalog.Table{Name: name, Format: catalog.Dataset, Schema: schema}
	if err := e.cat.Register(tab); err != nil {
		return err
	}
	st := &tableState{tab: tab, nrows: -1, ds: &datasetState{manifest: m}}
	for i, src := range srcs {
		ps := &tableState{src: src}
		_, ps.nrows = src.stat()
		ps.tab = &catalog.Table{Name: name + "#" + m.Parts[i].ID, Format: parts[i].Format, Schema: schema}
		ps.resident.Store(true)
		if e.vault != nil {
			e.vaultLoad(ps)
		}
		st.ds.parts = append(st.ds.parts, ps)
	}
	e.datasetWarmup(st)
	e.mu.Lock()
	e.tables[name] = st
	e.mu.Unlock()
	return nil
}

// datasetWarmup wires a freshly built dataset parent into the vault: the
// parent fingerprint (pattern + schema) keys the manifest entry, row counts
// carry over from the vaulted manifest for partitions whose stat identity is
// unchanged, and path-backed partitions warm from their per-partition vault
// namespaces. Without a vault this is a no-op beyond marking the manifest
// for its first save.
func (e *Engine) datasetWarmup(st *tableState) {
	ds := st.ds
	if e.vault != nil {
		if fp, ok := e.vaultFingerprint(st); ok {
			st.fp, st.hasFP = fp, true
			if old := e.vault.LoadManifest(st.tab.Name, fp); old != nil {
				d := dataset.Compare(old, ds.manifest)
				for _, ki := range d.Kept {
					ds.manifest.Parts[ki[1]].Rows = old.Parts[ki[0]].Rows
				}
			}
		}
		ds.dirty = true
	}
	// Path-backed datasets build partition states here (in-memory ones built
	// their own before calling in).
	if len(ds.parts) == 0 && len(ds.manifest.Parts) > 0 {
		for i := range ds.manifest.Parts {
			ds.parts = append(ds.parts, e.newPartState(st, &ds.manifest.Parts[i]))
		}
	}
}

// newPartState builds the tableState of one path-backed partition and warms
// it from its vault namespace. The partition's raw bytes are NOT loaded —
// that happens lazily at plan time, after partition pruning.
func (e *Engine) newPartState(parent *tableState, p *dataset.Partition) *tableState {
	ps := &tableState{nrows: -1}
	ps.src, _ = newSource(p.Format, e.cfg.PosMapPolicy, nil) // errs only on a bad image
	ps.tab = &catalog.Table{
		Name:   parent.tab.Name + "#" + p.ID,
		Path:   p.Path,
		Format: p.Format,
		Schema: parent.tab.Schema,
	}
	ps.expectSize = p.Size
	if p.Rows >= 0 {
		ps.nrows = p.Rows
	}
	if e.vault != nil {
		e.vaultLoad(ps)
	}
	return ps
}

// loadPartData loads one partition's raw bytes if absent. It takes the
// partition's own (otherwise unused) qmu so a concurrent Explain — which
// plans without the parent's query lock — cannot race the load.
func (e *Engine) loadPartData(ps *tableState) error {
	ps.qmu.Lock()
	defer ps.qmu.Unlock()
	return e.loadPartChecked(ps)
}

// refreshDatasets incrementally refreshes every dataset a query touches.
// Called under the query's table locks, right before planning.
func (e *Engine) refreshDatasets(r *resolvedQuery) error {
	seen := make(map[*tableState]bool, len(r.tables))
	for _, bt := range r.tables {
		st := bt.st
		if st.ds == nil || st.ds.pattern == "" || seen[st] {
			continue
		}
		seen[st] = true
		if err := e.refreshDataset(st); err != nil {
			return err
		}
	}
	return nil
}

// refreshDataset re-discovers the dataset's files and reconciles the
// partition set: unchanged files (same size + mtime) keep their states and
// caches untouched, new files become cold partitions, rewritten or truncated
// files are invalidated per partition (their caches, budget entries and
// pooled shreds dropped; the raw bytes reload lazily), and removed files
// drop out entirely. A change only ever costs the partitions it touches.
func (e *Engine) refreshDataset(st *tableState) error {
	ds := st.ds
	m, err := dataset.Discover(ds.pattern, ds.override)
	if err != nil {
		// Degrade, don't fail: a transiently unreadable directory leaves the
		// query running against the manifest it last saw (files that truly
		// vanished will surface as retryable partition losses at load time).
		e.metrics.Counter("manifest.refresh.errors").Inc()
		e.emitEvent(obs.EventStaleManifest, "manifest", st.tab.Name, 0,
			"refresh failed: "+err.Error())
		return nil
	}
	d := dataset.Compare(ds.manifest, m)
	if d.Unchanged() {
		return nil
	}
	newParts := make([]*tableState, len(m.Parts))
	for _, ki := range d.Kept {
		m.Parts[ki[1]].Rows = ds.manifest.Parts[ki[0]].Rows
		newParts[ki[1]] = ds.parts[ki[0]]
	}
	for _, ci := range d.Changed {
		e.emitInvalidated(ds.parts[ci[0]], "file-changed")
		e.dropStateCaches(ds.parts[ci[0]])
		if e.vault != nil && ds.manifest.Parts[ci[0]].ID != m.Parts[ci[1]].ID {
			// The partition's ID (and with it the vault namespace) changed:
			// remove the old namespace, or nothing would ever read — or
			// reclaim — it again.
			_ = e.vault.RemoveTable(ds.parts[ci[0]].tab.Name)
		}
		newParts[ci[1]] = e.newPartState(st, &m.Parts[ci[1]])
	}
	for _, ni := range d.Added {
		newParts[ni] = e.newPartState(st, &m.Parts[ni])
	}
	for _, oi := range d.Removed {
		e.emitInvalidated(ds.parts[oi], "file-removed")
		e.dropStateCaches(ds.parts[oi])
		if e.vault != nil {
			_ = e.vault.RemoveTable(ds.parts[oi].tab.Name)
		}
	}
	// The pair is read by admission (EstimateQueryBytes) under e.mu alone.
	e.mu.Lock()
	ds.manifest = m
	ds.parts = newParts
	e.mu.Unlock()
	ds.dirty = true
	return nil
}

// --- planning ---

// prunePartition reports whether a partition can be excluded without opening
// its file: a zone-map synopsis from an earlier query (or the vault) proves
// some predicate matches no row. Whole-partition pruning leaves no capture
// holes inside opened files, so unlike block skipping it applies even while
// shred capture is active.
func (pc *planCtx) prunePartition(ps *tableState, preds []boundPred) bool {
	if !pc.zonemaps || len(preds) == 0 {
		return false
	}
	syn := ps.synopsis()
	if syn == nil || syn.NRows() <= 0 {
		return false
	}
	skip := synSkip(syn, preds)
	return skip != nil && skip(0, syn.NRows())
}

// shadowQuery wraps one partition as a single-table resolved query so the
// ordinary single-table planner machinery (strategy selection, shred
// cascade, pushdown, morsel splitting) plans it unchanged: the partition's
// filters are the parent's, and every needed column appears as a plain
// projection item.
func shadowQuery(alias string, ps *tableState, preds []boundPred, cols []int,
	schema []catalog.Column) *resolvedQuery {
	sq := &resolvedQuery{
		tables:  []*boundTable{{alias: alias, st: ps, pos: ps.positions()}},
		filters: [][]boundPred{preds},
	}
	for _, c := range cols {
		sq.items = append(sq.items, boundItem{ref: boundRef{0, c}, name: schema[c].Name})
	}
	return sq
}

// datasetCols returns the canonical column set of a dataset scan — every
// filter and output column of table t, sorted — plus its batch schema.
// Every partition pipeline projects onto this layout, so mixed cache states
// (one partition serving shreds, its neighbour scanning cold) concatenate
// cleanly.
func datasetCols(r *resolvedQuery, t int) ([]int, vector.Schema) {
	filterCols, outputCols := r.neededColumns()
	cols := append(append([]int{}, filterCols[t]...), outputCols[t]...)
	sortInts(cols)
	cols = dedupInts(cols)
	tab := r.tables[t].st.tab
	if len(cols) == 0 {
		// Zero-column batches cannot carry a row count; materialise the
		// cheapest fixed-width column.
		cols = []int{countColumn(tab)}
	}
	schema := make(vector.Schema, len(cols))
	for i, c := range cols {
		schema[i] = vector.Col{Name: tab.Schema[c].Name, Type: tab.Schema[c].Type}
	}
	return cols, schema
}

// datasetPipe plans table t of the query when it is a dataset: partitions
// surviving zone-map pruning are planned by the ordinary single-table
// machinery (one pipeline each, filters applied inside), projected onto the
// canonical layout and concatenated in manifest order, so the stream above
// is indistinguishable from one scan over the partitions' rows laid end to
// end.
func (pc *planCtx) datasetPipe(r *resolvedQuery, t int) (*pipe, error) {
	bt := r.tables[t]
	st := bt.st
	preds := r.filters[t]
	cols, schema := datasetCols(r, t)
	names := make([]string, len(cols))
	for i := range cols {
		names[i] = schema[i].Name
	}

	var parts []exec.Operator
	var pspans []*obs.Span
	for i, ps := range st.ds.parts {
		if pc.prunePartition(ps, preds) {
			pc.stats.PartitionsSkipped++
			pc.noteAvoidedHeat(st.tab.Name, st.ds.manifest.Parts[i].Size)
			continue
		}
		if err := pc.e.loadPartData(ps); err != nil {
			return nil, err
		}
		pc.stats.PartitionsScanned++
		shadow := shadowQuery(bt.alias, ps, preds, cols, st.tab.Schema)
		pp, err := pc.planSingle(shadow)
		if err != nil {
			return nil, err
		}
		idxs := make([]int, len(cols))
		for i, c := range cols {
			pos, ok := pp.pos[boundRef{0, c}]
			if !ok {
				return nil, fmt.Errorf("engine: internal: dataset column %d not materialised", c)
			}
			idxs[i] = pos
		}
		proj, err := exec.NewProject(pp.op, idxs, names)
		if err != nil {
			return nil, err
		}
		pop, pspan := pc.opSpan(proj, "partition("+ps.tab.Name+")", pp.span)
		parts = append(parts, pop)
		pspans = append(pspans, pspan)
	}

	var op exec.Operator
	switch len(parts) {
	case 0:
		// Empty dataset, or every partition pruned: an empty in-memory scan
		// keeps the operator shape and output schema intact.
		vecs := make([]*vector.Vector, len(cols))
		for i := range vecs {
			vecs[i] = vector.New(schema[i].Type, 0)
		}
		ms, err := exec.NewMemScan(schema, vecs, pc.e.cfg.BatchSize)
		if err != nil {
			return nil, err
		}
		op = ms
	case 1:
		op = parts[0]
	default:
		cc, err := exec.NewConcat(parts)
		if err != nil {
			return nil, err
		}
		op = cc
	}
	p := &pipe{op: op, pos: make(map[boundRef]int), rid: map[int]int{t: -1}}
	for i, c := range cols {
		p.pos[boundRef{t, c}] = i
	}
	if pc.trace != nil {
		switch len(parts) {
		case 0:
		case 1:
			p.span = pspans[0]
		default:
			s := pc.trace.NewSpan(fmt.Sprintf("concat[parts=%d]", len(parts)))
			for _, cs := range pspans {
				cs.SetParent(s)
			}
			p.op = exec.WithSpan(p.op, s)
			p.span = s
		}
	}
	return p, nil
}

// datasetMorsels builds the interleaved morsel set of a parallel dataset
// scan: every surviving partition contributes at least one morsel — so
// parallelism scales with file count even when individual files are too
// small to split — and larger partitions proportionally more, up to the
// query's total morsel target. The exchange replays part outputs in
// (partition, morsel) order, which is exactly the manifest-order concat, so
// results stay byte-identical to the serial plan. Residual predicates are
// filtered per partition here (partitions differ in cache state, so their
// scans may absorb different subsets). ok is false when any partition's
// strategy × format × cache state has no parallel form — the whole query
// then falls back to the serial dataset plan, with the stats mutations of
// the attempt rolled back.
func (pc *planCtx) datasetMorsels(r *resolvedQuery, cols []int, needSlot map[int]int) (parts []exec.Operator, done func() error, ok bool, err error) {
	st := r.tables[0].st
	preds := r.filters[0]

	savedStats := *pc.stats // slice headers snapshot current lengths
	savedHooks := len(pc.onComplete)
	savedProbes := len(pc.probes)
	restore := func() {
		*pc.stats = savedStats
		pc.onComplete = pc.onComplete[:savedHooks]
		pc.probes = pc.probes[:savedProbes]
	}

	type cand struct {
		ps     *tableState
		weight int64
	}
	var cands []cand
	var totalW int64
	for i, ps := range st.ds.parts {
		if pc.prunePartition(ps, preds) {
			pc.stats.PartitionsSkipped++
			pc.noteAvoidedHeat(st.tab.Name, st.ds.manifest.Parts[i].Size)
			continue
		}
		w := st.ds.manifest.Parts[i].Size
		if w <= 0 {
			w = 1
		}
		cands = append(cands, cand{ps, w})
		totalW += w
	}
	if len(cands) == 0 {
		restore()
		// The serial plan emits the empty scan.
		return nil, nil, pc.declineParallel(fallbackSmallFile,
			"every partition of %s pruned", st.tab.Name), nil
	}

	nmTotal := pc.workers * morselsPerWorker
	pc.allowSingleMorsel = true
	defer func() {
		pc.allowSingleMorsel = false
		pc.morselTarget = 0
	}()
	var dones []func() error
	for _, c := range cands {
		if err := pc.e.loadPartData(c.ps); err != nil {
			restore()
			return nil, nil, false, err
		}
		target := int(int64(nmTotal) * c.weight / totalW)
		if target < 1 {
			target = 1
		}
		pc.morselTarget = target
		shadow := shadowQuery(r.tables[0].alias, c.ps, preds, cols, st.tab.Schema)
		pp, pdone, residual, pok, err := pc.morselScans(shadow, cols, preds)
		if err != nil || !pok {
			restore()
			return nil, nil, false, err
		}
		pp, err = filterParts(pp, residual, needSlot)
		if err != nil {
			restore()
			return nil, nil, false, err
		}
		parts = append(parts, pp...)
		if pdone != nil {
			dones = append(dones, pdone)
		}
	}
	pc.stats.PartitionsScanned += len(cands)
	if len(parts) < 2 {
		restore()
		return nil, nil, pc.declineParallel(fallbackSmallFile,
			"%s yields %d morsels across its partitions (need 2)", st.tab.Name, len(parts)), nil
	}
	done = func() error {
		for _, d := range dones {
			if err := d(); err != nil {
				return err
			}
		}
		return nil
	}
	return parts, done, true, nil
}
