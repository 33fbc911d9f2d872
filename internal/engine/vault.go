package engine

import (
	"hash/fnv"
	"sort"
	"sync"

	"rawdb/internal/catalog"
	"rawdb/internal/jsonidx"
	"rawdb/internal/obs"
	"rawdb/internal/posmap"
	"rawdb/internal/shred"
	"rawdb/internal/synopsis"
	"rawdb/internal/vault"
)

// This file wires the persistent raw-data vault (package vault) and the
// unified cache budget through the engine:
//
//   - Register* computes the raw file's fingerprint and loads any valid
//     vault entries, so the first query after a process restart plans
//     against the positional map / structural index / shreds earlier
//     processes built (restart-warm ≈ in-memory-warm).
//   - Every completed query re-accounts its tables' structures in the
//     unified budget and, when a structure changed, encodes it under the
//     table's query lock and hands the bytes to an asynchronous writer that
//     publishes them with an atomic rename. Losing an async write (process
//     exit without Close) merely costs restart warmth — the vault is a
//     cache, never the source of truth.

// vaultFingerprint computes the fingerprint vault entries for this table are
// keyed by. ok is false for tables without a stable raw identity (memory
// tables, pre-opened ROOT files) — those are never vaulted.
func (e *Engine) vaultFingerprint(st *tableState) (vault.Fingerprint, bool) {
	tab := st.tab
	if tab.Format == catalog.Memory {
		return vault.Fingerprint{}, false
	}
	if st.ds != nil {
		// Dataset parents persist only their manifest; the fingerprint binds
		// it to the registration pattern and schema (the partitions' own
		// entries carry per-file fingerprints).
		h := fnv.New64a()
		h.Write([]byte(st.ds.pattern))
		return vault.Fingerprint{Sum: h.Sum64(), Schema: vault.SchemaHash(tab.Schema)}, true
	}
	var fp vault.Fingerprint
	switch img := st.src.image(); {
	case img != nil:
		fp = vault.DataFingerprint(img)
	case tab.Path != "":
		var err error
		fp, err = vault.FileFingerprint(tab.Path)
		if err != nil {
			return vault.Fingerprint{}, false
		}
	default:
		return vault.Fingerprint{}, false
	}
	fp.Schema = vault.SchemaHash(tab.Schema)
	return fp, true
}

// vaultLoad warms a table from the vault at registration time. Invalid or
// stale entries are ignored (and removed by the store); the table then
// starts cold exactly as without a vault.
func (e *Engine) vaultLoad(st *tableState) {
	fp, ok := e.vaultFingerprint(st)
	if !ok {
		return
	}
	st.fp, st.hasFP = fp, true
	name := st.tab.Name
	restored := func(structure string, bytes int64) {
		e.metrics.Counter("vault.restored").Inc()
		e.metrics.Counter("vault.restored_bytes").Add(bytes)
		e.emitEvent(0, obs.EventRestored, structure, name, bytes, "vault")
	}
	switch st.tab.Format {
	case catalog.CSV:
		if pm := e.vault.LoadPosMap(name, fp); pm != nil && pm.NRows() > 0 {
			st.setPosMap(pm)
			st.savedPM = pm
			st.learnRows(pm.NRows())
			restored("posmap", pm.MemoryFootprint())
		}
	case catalog.JSON:
		if x := e.vault.LoadJSONIdx(name, fp); x != nil && x.NRows() > 0 {
			st.setJSONIdx(x)
			st.savedJIdx, st.savedJIdxVer = x, x.Version()
			st.learnRows(x.NRows())
			restored("jsonidx", x.MemoryFootprint())
		}
	}
	if !e.cfg.DisableZoneMaps {
		if syn := e.vault.LoadSynopsis(name, fp); syn != nil && syn.NRows() > 0 &&
			(st.nrows < 0 || syn.NRows() == st.nrows) {
			st.setSynopsis(syn)
			st.savedSyn = syn
			restored("synopsis", syn.MemoryFootprint())
		}
	}
	if !e.cfg.DisableShredCache {
		before := e.shreds.SizeBytes()
		n := 0
		for _, ts := range e.vault.LoadShreds(name, fp) {
			if ts.Col >= len(st.tab.Schema) || ts.Vec.Type != st.tab.Schema[ts.Col].Type {
				continue // defense in depth; the schema hash should prevent this
			}
			e.shreds.Put(shred.Key{Table: name, Col: ts.Col}, ts.RowIDs, ts.Vec)
			n++
		}
		st.savedShredVer = e.shreds.TableVersion(name)
		if n > 0 {
			restored("shred", e.shreds.SizeBytes()-before)
		}
	}
	e.accountState(st)
}

// accountState (re-)records a table's positional map and structural index in
// the unified budget. Shreds are accounted by the pool itself, per shred.
func (e *Engine) accountState(st *tableState) {
	if e.budget == nil {
		return
	}
	name := st.tab.Name
	if pm := st.posMap(); pm != nil {
		e.budget.Set("posmap:"+name, pm.MemoryFootprint(), func() { st.dropPosMap(pm) })
	}
	if x := st.jsonIdx(); x != nil {
		e.budget.Set("jsonidx:"+name, x.MemoryFootprint(), func() { st.dropJSONIdx(x) })
	}
	if syn := st.synopsis(); syn != nil {
		e.budget.Set("synopsis:"+name, syn.MemoryFootprint(), func() { st.dropSynopsis(syn) })
	}
}

// vaultUpdate runs at the end of every successful query, while the query's
// table locks are still held: it refreshes budget accounting and schedules
// vault write-backs for structures that changed.
func (e *Engine) vaultUpdate(r *resolvedQuery) {
	if e.vault == nil && e.budget == nil {
		return
	}
	seen := make(map[*tableState]bool, len(r.tables))
	for _, bt := range r.tables {
		st := bt.st
		if seen[st] {
			continue
		}
		seen[st] = true
		// Write-back first: accounting may evict this very table's dirty
		// structure under budget pressure (dropPosMap nils the shared
		// pointer), and a structure must reach the encoder before it can be
		// dropped from memory — disk persistence is independent of the
		// in-memory budget.
		if st.ds != nil {
			// Datasets: each partition writes back and accounts under its own
			// namespace; the parent contributes only the manifest.
			for _, ps := range st.ds.parts {
				e.vaultSaveAsync(ps)
				e.accountState(ps)
			}
		}
		e.vaultSaveAsync(st)
		e.accountState(st)
	}
}

type vaultWrite struct {
	kind vault.Kind
	data []byte
}

// vaultMarkers are the last-saved markers to install once a collected save
// is committed to the writer.
type vaultMarkers struct {
	pm       *posmap.Map
	jidx     *jsonidx.Index
	jidxVer  uint64
	shredVer int64
	syn      *synopsis.Synopsis
	// manifestClean marks that a dataset manifest reached the writer (the
	// parent's dirty flag clears on install).
	manifestClean bool
}

// collectVaultWrites encodes every structure of st that changed since the
// last save (the caller holds st.qmu, so the structures are stable while
// encoding), returning the encoded entries and the markers to install if the
// save is committed.
func (e *Engine) collectVaultWrites(st *tableState) ([]vaultWrite, vaultMarkers) {
	var writes []vaultWrite
	m := vaultMarkers{pm: st.savedPM, jidx: st.savedJIdx,
		jidxVer: st.savedJIdxVer, shredVer: st.savedShredVer, syn: st.savedSyn}
	name := st.tab.Name
	if st.tab.Format == catalog.CSV {
		if cur := st.posMap(); cur != nil && cur.NRows() > 0 && cur != st.savedPM {
			writes = append(writes, vaultWrite{vault.KindPosMap, vault.EncodePosMap(st.fp, cur)})
			m.pm = cur
		}
	}
	// Synopses are immutable once installed, so pointer identity is the
	// dirtiness test (like positional maps).
	if cur := st.synopsis(); cur != nil && cur.NRows() > 0 && cur != st.savedSyn {
		writes = append(writes, vaultWrite{vault.KindSynopsis, vault.EncodeSynopsis(st.fp, cur)})
		m.syn = cur
	}
	if st.tab.Format == catalog.JSON {
		if cur := st.jsonIdx(); cur != nil && cur.NRows() > 0 &&
			(cur != st.savedJIdx || cur.Version() != st.savedJIdxVer) {
			writes = append(writes, vaultWrite{vault.KindJSONIdx, vault.EncodeJSONIdx(st.fp, cur)})
			m.jidx, m.jidxVer = cur, cur.Version()
		}
	}
	if !e.cfg.DisableShredCache {
		if v := e.shreds.TableVersion(name); v != st.savedShredVer {
			if shs := e.shreds.ShredsOf(name); len(shs) > 0 {
				ts := make([]vault.TableShred, len(shs))
				for i, s := range shs {
					ts[i] = vault.TableShred{Col: s.Key().Col, RowIDs: s.RowIDs(), Vec: s.Vector()}
				}
				writes = append(writes, vaultWrite{vault.KindShreds, vault.EncodeShreds(st.fp, ts)})
				m.shredVer = v
			}
		}
	}
	if ds := st.ds; ds != nil {
		// Sync partition row counts into the manifest; newly known counts (or
		// a refresh-reshaped partition list) dirty it.
		rowsChanged := false
		for i, ps := range ds.parts {
			if ps.nrows >= 0 && ds.manifest.Parts[i].Rows != ps.nrows {
				ds.manifest.Parts[i].Rows = ps.nrows
				rowsChanged = true
			}
		}
		if ds.dirty || rowsChanged {
			writes = append(writes, vaultWrite{vault.KindManifest, vault.EncodeManifest(st.fp, ds.manifest)})
			m.manifestClean = true
		}
	}
	return writes, m
}

func (st *tableState) installMarkers(m vaultMarkers) {
	st.savedPM, st.savedJIdx, st.savedSyn = m.pm, m.jidx, m.syn
	st.savedJIdxVer, st.savedShredVer = m.jidxVer, m.shredVer
	if m.manifestClean && st.ds != nil {
		st.ds.dirty = false
	}
}

// vaultSaveAsync schedules the write-back of st's dirty structures. The
// caller holds st.qmu: encoding happens here, synchronously, so the bytes
// are a consistent snapshot; only the disk I/O runs on the writer goroutine.
// Per-table write order is preserved by handing the table's write lock to
// the goroutine; if a previous write is still in flight the save is skipped
// and a later query (or FlushVault) retries — the dirtiness markers are only
// advanced when a save is actually committed.
func (e *Engine) vaultSaveAsync(st *tableState) {
	if e.vault == nil || !st.hasFP {
		return
	}
	// Take the write lock before encoding: when a previous write is still in
	// flight the save is skipped anyway, and encoding first would waste an
	// O(cached-bytes) pass under the query lock just to discard it.
	if !st.wmu.TryLock() {
		return
	}
	writes, m := e.collectVaultWrites(st)
	if len(writes) == 0 {
		st.wmu.Unlock()
		return
	}
	st.installMarkers(m)
	e.notePublish(writes)
	name := st.tab.Name
	e.vaultIO.add()
	go func() {
		defer e.vaultIO.done()
		defer st.wmu.Unlock()
		for _, w := range writes {
			// Best effort: a failed write only costs restart warmth.
			_ = e.vault.WriteEntry(name, w.kind, w.data)
		}
	}()
}

// notePublish accounts a committed batch of vault write-backs in the
// registry (entry count and encoded bytes).
func (e *Engine) notePublish(writes []vaultWrite) {
	var bytes int64
	for _, w := range writes {
		bytes += int64(len(w.data))
	}
	e.metrics.Counter("vault.publish.entries").Add(int64(len(writes)))
	e.metrics.Counter("vault.publish.bytes").Add(bytes)
}

// FlushVault writes back every dirty structure synchronously and waits for
// in-flight asynchronous writes. Call it (or Close) before process exit when
// the next process should restart warm.
func (e *Engine) FlushVault() {
	if e.vault == nil {
		return
	}
	e.mu.Lock()
	sts := make([]*tableState, 0, len(e.tables))
	for _, st := range e.tables {
		sts = append(sts, st)
	}
	e.mu.Unlock()
	sort.Slice(sts, func(i, j int) bool { return sts[i].tab.Name < sts[j].tab.Name })
	for _, st := range sts {
		group := []*tableState{st}
		if st.ds != nil {
			// Partitions share the parent's query lock; flush them under it.
			group = append(group, st.ds.parts...)
		}
		st.qmu.Lock()
		for _, s := range group {
			if !s.hasFP {
				continue
			}
			writes, m := e.collectVaultWrites(s)
			if len(writes) == 0 {
				continue
			}
			s.wmu.Lock() // waits for any in-flight async write of this table
			s.installMarkers(m)
			e.notePublish(writes)
			for _, w := range writes {
				_ = e.vault.WriteEntry(s.tab.Name, w.kind, w.data)
			}
			s.wmu.Unlock()
		}
		st.qmu.Unlock()
	}
	e.vaultIO.wait()
}

// ioTracker counts in-flight asynchronous writer goroutines and lets a
// flusher wait for the count to drain. Unlike sync.WaitGroup it tolerates
// add() racing wait(): a query completing mid-flush simply extends the wait
// until its write lands too.
type ioTracker struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending int
}

func (t *ioTracker) add() {
	t.mu.Lock()
	t.pending++
	t.mu.Unlock()
}

func (t *ioTracker) done() {
	t.mu.Lock()
	t.pending--
	if t.pending == 0 && t.cond != nil {
		t.cond.Broadcast()
	}
	t.mu.Unlock()
}

func (t *ioTracker) wait() {
	t.mu.Lock()
	for t.pending > 0 {
		if t.cond == nil {
			t.cond = sync.NewCond(&t.mu)
		}
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// Close flushes pending vault write-backs. The engine remains usable
// afterwards; Close exists so defer-style lifecycles leave the vault warm.
func (e *Engine) Close() error {
	e.FlushVault()
	return nil
}
