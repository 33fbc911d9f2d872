package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"rawdb/internal/catalog"
	"rawdb/internal/obs"
	"rawdb/internal/shred"
	"rawdb/internal/vault"
)

// This file wires a table's cached structures through the unified cache
// budget and the persistent raw-data vault (package vault):
//
//   - Register* computes the raw file's fingerprint and restores any valid
//     vault entries, so the first query after a process restart plans
//     against the positional structure / synopsis / shreds earlier processes
//     built (restart-warm ≈ in-memory-warm).
//   - Every completed query re-accounts its tables' structures in the
//     unified budget and, when a structure changed, encodes it under the
//     table's query lock and hands the bytes to an asynchronous writer that
//     publishes them with an atomic rename. Losing an async write (process
//     exit without Close) merely costs restart warmth — the vault is a
//     cache, never the source of truth.
//
// The positional structure and the synopsis each live in one slot, and every
// step above — restore, account, save, evict, reset, drop, report — is one
// loop over a table's slots. Shreds and a dataset's manifest keep their own
// paths: the shred pool and the manifest own them.

// structure is what a slot caches: a positional map, a structural index or a
// synopsis.
type structure interface {
	NRows() int64
	MemoryFootprint() int64
}

// slot holds one cached structure of a table. The current structure has its
// own lock: queries read and install it under the table's qmu, but the
// budget may evict it from any goroutine. Readers snapshot it once
// (positions) and keep using what they got; an eviction only drops the
// shared reference, never the data.
type slot struct {
	// kind names the structure in budget keys, events, gauges and vault
	// entries (0: the table's format keeps none); key is its budget key,
	// "<kind>:<table>".
	kind vault.Kind
	key  string

	mu  sync.Mutex
	cur structure

	// saved is the structure the vault writer last took (written under the
	// table's qmu and wmu).
	saved structure
}

func (s *slot) bind(k vault.Kind, table string) { s.kind, s.key = k, k.String()+":"+table }

func (s *slot) get() structure {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

func (s *slot) set(x structure) {
	s.mu.Lock()
	s.cur = x
	s.mu.Unlock()
}

// drop clears the slot iff it still holds old (budget eviction: a structure
// installed meanwhile stays).
func (s *slot) drop(old structure) {
	s.mu.Lock()
	if s.cur == old {
		s.cur = nil
	}
	s.mu.Unlock()
}

// markSaved records x as what the vault holds.
func (s *slot) markSaved(x structure) { s.saved = x }

// dirty returns the slot's structure if the vault does not hold it yet: one
// installed since the last save (structures are immutable once installed, so
// identity tells).
func (s *slot) dirty() structure {
	cur := s.get()
	if cur == nil || cur.NRows() <= 0 || cur == s.saved {
		return nil
	}
	return cur
}

// vaultFingerprint computes the fingerprint vault entries for this table are
// keyed by. ok is false for tables without a stable raw identity (memory
// tables) — those are never vaulted.
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
	case tab.Path != "":
		var err error
		fp, err = vault.FileFingerprint(tab.Path)
		if err != nil {
			return vault.Fingerprint{}, false
		}
	case img != nil:
		fp = vault.DataFingerprint(img)
	default:
		return vault.Fingerprint{}, false
	}
	fp.Schema = vault.SchemaHash(tab.Schema)
	if tab.Tree != "" {
		// Every tree of a ROOT file has the file's fingerprint: the tree
		// read tells them apart.
		h := fnv.New64a()
		h.Write(binary.LittleEndian.AppendUint64([]byte(tab.Tree), fp.Schema))
		fp.Schema = h.Sum64()
	}
	return fp, true
}

// vaultLoad warms a table from the vault, if any, at registration time.
// Invalid or stale entries are ignored (and removed by the store); the table
// then starts cold exactly as without a vault. A restored structure states
// the table's row count; one disagreeing with a count already known is
// ignored.
func (e *Engine) vaultLoad(st *tableState) {
	if e.vault == nil {
		return
	}
	fp, ok := e.vaultFingerprint(st)
	st.fp, st.hasFP = fp, ok
	if !ok {
		return // nothing is saved under a fingerprint of another file either
	}
	name := st.tab.Name
	restored := func(kind vault.Kind, bytes int64) {
		e.metrics.Counter("vault.restored").Inc()
		e.metrics.Counter("vault.restored_bytes").Add(bytes)
		e.emitEvent(0, obs.EventRestored, kind.String(), name, bytes, "vault")
	}
	for _, s := range st.slots() {
		if s.kind == 0 || s == &st.syn && e.cfg.DisableZoneMaps {
			continue
		}
		x, _ := e.vault.Load(name, s.kind, fp).(structure)
		if x == nil || x.NRows() <= 0 || st.nrows >= 0 && x.NRows() != st.nrows {
			continue
		}
		s.set(x)
		s.markSaved(x)
		st.learnRows(x.NRows())
		restored(s.kind, x.MemoryFootprint())
	}
	if !e.cfg.DisableShredCache {
		before := e.shreds.SizeBytes()
		n := 0
		shs, _ := e.vault.Load(name, vault.KindShreds, fp).([]vault.TableShred)
		for _, ts := range shs {
			if ts.Col >= len(st.tab.Schema) || ts.Vec.Type != st.tab.Schema[ts.Col].Type {
				continue // defense in depth; the schema hash should prevent this
			}
			e.shreds.Put(shred.Key{Table: name, Col: ts.Col}, ts.RowIDs, ts.Vec)
			n++
		}
		st.shredVer = e.shreds.TableVersion(name)
		if n > 0 {
			restored(vault.KindShreds, e.shreds.SizeBytes()-before)
		}
	}
	e.accountState(st)
}

// accountState (re-)records a table's slots in the unified budget; an
// eviction drops the structure accounted, not a newer one. Shreds are
// accounted by the pool itself, per shred.
func (e *Engine) accountState(st *tableState) {
	for _, s := range st.slots() {
		if x := s.get(); x != nil {
			e.budget.Set(s.key, x.MemoryFootprint(), func() { s.drop(x) })
		}
	}
}

// AuditBudget checks the cache budget's conservation identity: it charges
// exactly the structures the table slots and the shred pool hold, byte for
// byte and entry for entry. The identity holds between queries; a query in
// flight may hold structures its publication has not charged yet.
func (e *Engine) AuditBudget() error {
	var bytes, entries int64
	e.eachState(func(s *tableState) {
		for _, sl := range s.slots() {
			if x := sl.get(); x != nil {
				bytes += x.MemoryFootprint()
				entries++
			}
		}
	})
	bytes += e.shreds.SizeBytes()
	entries += int64(e.shreds.Len())
	if b, n := e.budget.SizeBytes(), int64(e.budget.Len()); b != bytes || n != entries {
		return fmt.Errorf("engine: cache budget charges %d bytes in %d entries, slots and shred pool hold %d in %d",
			b, n, bytes, entries)
	}
	return nil
}

// dropState releases what a table state caches — its slots' budget entries
// and its pooled shreds — reporting each structure it holds as invalidated
// (the raw file changed, the partition vanished, or the table was dropped),
// stamped with the query whose refresh found it (0: none), and retires its
// mapped file, under st's query lock. No eviction callback runs: the state is
// being discarded (or reset).
func (e *Engine) dropState(qid int64, st *tableState, reason string) {
	st.unload()
	name := st.tab.Name
	for _, s := range st.slots() {
		if x := s.get(); x != nil {
			e.emitEvent(qid, obs.EventInvalidated, s.kind.String(), name, x.MemoryFootprint(), reason)
		}
		e.budget.Remove(s.key)
	}
	if shs := e.shreds.ShredsOf(name); len(shs) > 0 {
		var bytes int64
		for _, s := range shs {
			bytes += s.SizeBytes()
		}
		e.emitEvent(qid, obs.EventInvalidated, "shred", name, bytes, reason)
	}
	e.shreds.DropTable(name)
}

// vaultUpdate runs at the end of every successful query over the distinct
// tables sts, while their query locks are still held: it schedules vault
// write-backs for structures that changed and refreshes budget accounting.
func (e *Engine) vaultUpdate(sts []*tableState) {
	for _, st := range sts {
		// Write-back first: accounting may evict this very table's dirty
		// structure under budget pressure (slot.drop nils the shared
		// pointer), and a structure must reach the encoder before it can be
		// dropped from memory — disk persistence is independent of the
		// in-memory budget. A dataset's partitions write back and account
		// under their own namespaces; the parent contributes the manifest.
		for s := range st.family {
			e.vaultSave(s, true)
			e.accountState(s)
		}
	}
}

type vaultWrite struct {
	kind vault.Kind
	data []byte
}

// collectVaultWrites encodes every structure of st the vault does not hold
// yet, in the table's write order, and marks it saved. The caller holds
// st.qmu, so the structures are stable while encoding, and st.wmu, so the
// marks advance only for bytes handed to the writer.
func (e *Engine) collectVaultWrites(st *tableState) []vaultWrite {
	var writes []vaultWrite
	for _, s := range st.saves {
		if cur := s.dirty(); cur != nil {
			writes = append(writes, vaultWrite{s.kind, vault.Encode(st.fp, cur)})
			s.markSaved(cur)
		}
	}
	name := st.tab.Name
	if !e.cfg.DisableShredCache {
		if v := e.shreds.TableVersion(name); v != st.shredVer {
			if shs := e.shreds.ShredsOf(name); len(shs) > 0 {
				ts := make([]vault.TableShred, len(shs))
				for i, s := range shs {
					ts[i] = vault.TableShred{Col: s.Key().Col, RowIDs: s.RowIDs(), Vec: s.Values()}
				}
				writes = append(writes, vaultWrite{vault.KindShreds, vault.Encode(st.fp, ts)})
				st.shredVer = v
			}
		}
	}
	if ds := st.ds; ds != nil {
		// Sync partition row counts into the manifest; newly known counts (or
		// a refresh-reshaped partition list) dirty it.
		for i, ps := range ds.parts {
			if ps.nrows >= 0 && ds.manifest.Parts[i].Rows != ps.nrows {
				ds.manifest.Parts[i].Rows = ps.nrows
				ds.dirty = true
			}
		}
		if ds.dirty {
			writes = append(writes, vaultWrite{vault.KindManifest, vault.Encode(st.fp, ds.manifest)})
			ds.dirty = false
		}
	}
	return writes
}

// vaultSave writes back st's dirty structures in one step: under st's write
// lock it collects them, marks them saved and hands the bytes to the writer.
// The caller holds st.qmu. An async save's writer is a goroutine that
// inherits the lock, so the table's writes land in order; a save that finds
// a write still in flight is skipped, and a later query (or FlushVault)
// retries. A synchronous save waits for the write in flight instead.
func (e *Engine) vaultSave(st *tableState, async bool) {
	if e.vault == nil || !st.hasFP {
		return
	}
	// Lock before encoding: an async save finding a write in flight is
	// skipped, and encoding first would waste an O(cached-bytes) pass under
	// the query lock just to discard it.
	if !async {
		st.wmu.Lock()
	} else if !st.wmu.TryLock() {
		return
	}
	writes := e.collectVaultWrites(st)
	if len(writes) == 0 {
		st.wmu.Unlock()
		return
	}
	var bytes int64
	for _, w := range writes {
		bytes += int64(len(w.data))
	}
	e.metrics.Counter("vault.publish.entries").Add(int64(len(writes)))
	e.metrics.Counter("vault.publish.bytes").Add(bytes)
	write := func() {
		defer st.wmu.Unlock()
		for _, w := range writes {
			// Best effort: a failed write only costs restart warmth.
			_ = e.vault.WriteEntry(st.tab.Name, w.kind, w.data)
		}
	}
	if !async {
		write()
		return
	}
	e.vaultIO.add()
	go func() {
		defer e.vaultIO.done()
		write()
	}()
}

// FlushVault writes back every dirty structure synchronously and waits for
// in-flight asynchronous writes. Call it (or Close) before process exit when
// the next process should restart warm.
func (e *Engine) FlushVault() {
	if e.vault == nil {
		return
	}
	e.eachState(func(s *tableState) { e.vaultSave(s, false) })
	e.vaultIO.wait()
}

// eachState runs f on every table state, a dataset's partitions included, in
// name order, each under its table's query lock (partitions share the
// parent's).
func (e *Engine) eachState(f func(*tableState)) {
	sts := e.tableStates()
	sort.Slice(sts, func(i, j int) bool { return sts[i].tab.Name < sts[j].tab.Name })
	for _, st := range sts {
		st.qmu.Lock()
		for s := range st.family {
			f(s)
		}
		st.qmu.Unlock()
	}
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

// Close flushes pending vault write-backs and retires every mapped file. The
// engine remains usable afterwards (queries map files again); Close exists so
// defer-style lifecycles leave the vault warm.
func (e *Engine) Close() error {
	e.FlushVault()
	e.eachState((*tableState).unload)
	return nil
}
