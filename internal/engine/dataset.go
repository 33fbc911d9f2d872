package engine

import (
	"fmt"
	"slices"

	"rawdb/internal/catalog"
	"rawdb/internal/dataset"
	"rawdb/internal/exec"
	"rawdb/internal/obs"
	"rawdb/internal/synopsis"
	"rawdb/internal/vault"
	"rawdb/internal/vector"
)

// This file is the dataset layer: one logical table over a directory (or
// glob) of raw files. Each partition of the manifest is backed by its own
// tableState — never registered in the catalog, guarded by the parent's
// query lock — so every single-file mechanism (JIT access paths, positional
// maps, structural indexes, column shreds, zone-map synopses, the vault)
// applies per partition under a per-partition namespace ("<table>#<partID>").
// The planner treats partitions as scan units of their own, and prunes those
// whose synopsis excludes a predicate before their file is ever opened
// (Stats.PartitionsSkipped).

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
	st := &tableState{nrows: -1, ds: &datasetState{pattern: pattern, override: format, manifest: m}}
	st.bind(tab)
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
		// A format backs an in-memory partition if its plug-in loads the
		// image as handed over; ROOT does not, as a partition names no tree.
		src := newSource(dp.Format, e.cfg.PosMapPolicy, present(dp.Data), nil)
		if src == nil || dp.Format == catalog.Root {
			return fmt.Errorf("engine: dataset partition %d: format %s cannot back a partition", i, dp.Format)
		}
		if err := src.load(&catalog.Table{Format: dp.Format}); err != nil {
			return fmt.Errorf("engine: dataset partition %d: %w", i, err)
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
	st := &tableState{nrows: -1, ds: &datasetState{manifest: m}}
	st.bind(tab)
	for i, src := range srcs {
		ps := &tableState{src: src}
		_, ps.nrows = src.stat()
		ps.bind(&catalog.Table{Name: name + "#" + m.Parts[i].ID, Format: parts[i].Format, Schema: schema})
		ps.resident.Store(true)
		e.vaultLoad(ps)
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
			if old, _ := e.vault.Load(st.tab.Name, vault.KindManifest, fp).(*dataset.Manifest); old != nil {
				d := dataset.Compare(old, ds.manifest)
				for _, ki := range d.Kept {
					ds.manifest.Parts[ki[1]].Rows = old.Parts[ki[0]].Rows
				}
				// A file changed since the save — renamed over the partition
				// at the same size and mtime, too — may keep the sampled
				// fingerprint its entries were saved under: they describe
				// the old file, so the partition starts cold.
				for _, ci := range d.Changed {
					_ = e.vault.RemoveTable(st.tab.Name + "#" + old.Parts[ci[0]].ID)
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
	ps.src = newSource(p.Format, e.cfg.PosMapPolicy, nil, &e.mapped)
	ps.bind(&catalog.Table{
		Name:   parent.tab.Name + "#" + p.ID,
		Path:   p.Path,
		Format: p.Format,
		Schema: parent.tab.Schema,
	})
	ps.expectSize = p.Size
	if p.Rows >= 0 {
		ps.nrows = p.Rows
	}
	e.vaultLoad(ps)
	return ps
}

// loadPartData loads one partition's raw bytes if absent, for the planner of
// query qid. It takes the partition's own (otherwise unused) qmu so a
// concurrent Explain — which plans without the parent's query lock — cannot
// race the load.
func (e *Engine) loadPartData(ps *tableState, qid int64) error {
	ps.qmu.Lock()
	defer ps.qmu.Unlock()
	return e.loadPartChecked(ps, qid)
}

// refreshDatasets incrementally refreshes every dataset a query touches.
// Called under the query's table locks, right before planning; what the
// refresh reports is stamped with the query (rec).
func (e *Engine) refreshDatasets(rec *queryRecord, r *resolvedQuery) error {
	seen := make(map[*tableState]bool, len(r.tables))
	for _, bt := range r.tables {
		st := bt.st
		if st.ds == nil || st.ds.pattern == "" || seen[st] {
			continue
		}
		seen[st] = true
		if err := e.refreshDataset(rec, st); err != nil {
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
func (e *Engine) refreshDataset(rec *queryRecord, st *tableState) error {
	ds := st.ds
	m, err := dataset.Discover(ds.pattern, ds.override)
	if err != nil {
		// Degrade, don't fail: a transiently unreadable directory leaves the
		// query running against the manifest it last saw (files that truly
		// vanished will surface as retryable partition losses at load time).
		e.metrics.Counter("manifest.refresh.errors").Inc()
		rec.event(obs.EventStaleManifest, "manifest", st.tab.Name, 0,
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
		e.dropState(rec.id, ds.parts[ci[0]], "file-changed")
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
		e.dropState(rec.id, ds.parts[oi], "file-removed")
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
// its file: its zone-map synopsis, from an earlier query (or the vault),
// proves some predicate matches no row. Whole-partition pruning leaves no
// capture holes inside opened files, so unlike block skipping it applies even
// while shred capture is active.
func (pc *planCtx) prunePartition(syn *synopsis.Synopsis, preds []boundPred) bool {
	if !pc.zonemaps || len(preds) == 0 {
		return false
	}
	if syn == nil || syn.NRows() <= 0 {
		return false
	}
	skip := synSkip(syn, preds)
	return skip != nil && skip(0, syn.NRows())
}

// scanCols returns the columns a cut scan of table t materialises, which is
// also the layout every partition of a dataset is projected onto, so mixed
// cache states concatenate cleanly: every filter and output column, sorted,
// or the cheapest one to count rows by.
func scanCols(r *resolvedQuery, t int) []int {
	filterCols, outputCols := r.neededColumns()
	cols := slices.Concat(filterCols[t], outputCols[t])
	if sortInts(cols); len(cols) == 0 {
		cols = []int{countColumn(r.tables[t].st.tab)}
	}
	return cols
}

// buildDataset builds table t of the query when it is a dataset, over the
// partitions that survived pruning. One-part partitions are projected onto
// the table's layout and concatenated in manifest order, as if one scan read
// their rows end to end; the parts of cut ones, already in that layout,
// interleave on one exchange, which streams them in the same order.
func (pc *planCtx) buildDataset(r *resolvedQuery, t int, tp *tablePlan) (*pipe, error) {
	st, cols := r.tables[t].st, tp.cols
	tab, schema := st.tab, colSchema(st.tab, cols)
	names := make([]string, len(cols))
	for i := range cols {
		names[i] = schema[i].Name
	}

	p := &pipe{pos: make(map[boundRef]int), rid: map[int]int{}}
	p.layout(t, cols, -1)
	var pspans []*obs.Span
	for i := range tp.units {
		u := &tp.units[i]
		if u.spans == nil {
			pc.stats.PartitionsSkipped++
			pc.heatDelta(tab.Name).BytesAvoided += st.ds.manifest.Parts[i].Size
			continue
		}
		pc.stats.PartitionsScanned++
		pp, err := pc.buildUnit(t, u)
		if err != nil {
			return nil, err
		}
		if pp.par {
			p.par = true
			p.ops = append(p.ops, pp.ops...)
			continue
		}
		idxs := make([]int, len(cols))
		for i, c := range cols {
			pos, ok := pp.pos[boundRef{t, c}]
			if !ok {
				return nil, fmt.Errorf("engine: internal: dataset column %d not materialised", c)
			}
			idxs[i] = pos
		}
		proj, err := exec.NewProject(pp.ops[0], idxs, names)
		if err != nil {
			return nil, err
		}
		pop, pspan := pc.opSpan(proj, "partition("+u.bt.st.tab.Name+")", pp.span)
		p.ops = append(p.ops, pop)
		pspans = append(pspans, pspan)
	}
	switch {
	case p.par:
	case len(p.ops) == 0:
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
		p.ops = []exec.Operator{ms}
	case len(p.ops) == 1:
		p.span = pspans[0]
	default:
		cc, err := exec.NewConcat(p.ops)
		if err != nil {
			return nil, err
		}
		op, span := pc.opSpan(cc, fmt.Sprintf("concat[parts=%d]", len(p.ops)), pspans...)
		p.ops, p.span = []exec.Operator{op}, span
	}
	return p, nil
}
