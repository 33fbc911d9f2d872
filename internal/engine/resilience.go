package engine

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync/atomic"
	"time"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/faults"
	"rawdb/internal/obs"
	"rawdb/internal/sql"
	"rawdb/internal/vector"
)

// This file is the engine's degradation ladder: every failure mode of the
// raw files and caches underneath a query maps to the cheapest recovery that
// preserves correctness — retry a transient read, refresh a manifest, rerun
// cold — before the query is allowed to fail, and a failure never leaves
// partial adaptive state behind (the publication hooks only run on success).

// loadRetries and loadBackoff bound the transient-read retry loop: three
// attempts with 2ms, 8ms between them. Raw-file reads fail transiently on
// networked filesystems (and under fault injection); anything still failing
// after two backoffs is treated as real.
const loadRetries = 3

const loadBackoff = 2 * time.Millisecond

// loadWithRetry is loadTableData plus bounded backoff for transient errors.
// A missing file fails fast: retrying ENOENT only delays the manifest
// refresh that actually fixes it. Retry events carry the ID of the query
// whose planner loads the file (0: none).
func (e *Engine) loadWithRetry(st *tableState, qid int64) error {
	backoff := loadBackoff
	var err error
	for attempt := 0; attempt < loadRetries; attempt++ {
		if attempt > 0 {
			e.metrics.Counter("load.retries").Inc()
			e.emitEvent(qid, obs.EventRetry, "raw", st.tab.Name, 0,
				fmt.Sprintf("load attempt %d after: %v", attempt+1, err))
			time.Sleep(backoff)
			backoff *= 4
		}
		err = loadTableData(st)
		if err == nil || errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return err
}

// partLostError marks a raw file that changed or vanished under a query: a
// dataset partition between manifest refresh and load, or a held file before
// publication. It is retryable: QueryOptCtx reruns the query once, and the
// rerun's refresh reconciles the partition set, or maps the file anew, first.
type partLostError struct {
	part string
	err  error
}

func (p *partLostError) Error() string {
	return fmt.Sprintf("engine: raw file of %s lost mid-query: %v", p.part, p.err)
}

func (p *partLostError) Unwrap() error { return p.err }

// loadPartChecked loads one partition's raw bytes and verifies them against
// the manifest snapshot the query planned with: a load error or a size that
// no longer matches the stat identity means the file was deleted, truncated
// or rewritten after refresh — the partition is lost for this query's
// snapshot, and the caller surfaces a retryable partLostError. Sheared bytes
// are dropped so the retry reloads from the (new) file.
func (e *Engine) loadPartChecked(ps *tableState, qid int64) error {
	if err := e.loadWithRetry(ps, qid); err != nil {
		return &partLostError{part: ps.tab.Name, err: err}
	}
	data := ps.src.image()
	if got := int64(len(data)); ps.expectSize > 0 && data != nil && got != ps.expectSize {
		ps.unload()
		return &partLostError{
			part: ps.tab.Name,
			err:  fmt.Errorf("size %d differs from manifest snapshot %d", got, ps.expectSize),
		}
	}
	return nil
}

// collectSerial drains a serial plan to completion, streaming the running
// row count into rows — the query record's, so /debug/queries shows live
// progress. The fault site makes the serial execution phase injectable like
// the morsel workers are.
func collectSerial(ctx context.Context, op exec.Operator, rows *atomic.Int64) ([]*vector.Vector, error) {
	if err := faults.Hit(faults.SiteExecSerial); err != nil {
		return nil, err
	}
	return exec.CollectCtxCount(ctx, op, rows)
}

// --- memory governor (engine side) ---

// CacheBudgetUsage reports the cache budget's current size and the
// configured Config.CacheBudget in bytes. A capacity <= 0 means none was
// configured (the budget runs at its 256 MiB default), which callers must
// treat as "no pressure".
func (e *Engine) CacheBudgetUsage() (used, capacity int64) {
	return e.budget.SizeBytes(), e.cfg.CacheBudget
}

// EstimateQueryBytes estimates the adaptive-structure bytes a query could
// add to the cache budget: the summed raw size of every touched table (and
// dataset partition) whose bytes are not yet resident. Raw size upper-bounds
// what one scan can capture (positional maps, indexes and shreds are all
// sub-linear in the file), and tables already loaded have already built or
// charged their structures. Unknown SQL or unknown tables estimate 0 — the
// admission path must not reject a query the engine itself would answer with
// a proper error.
func (e *Engine) EstimateQueryBytes(src string) int64 {
	q, err := sql.Parse(src)
	if err != nil {
		return 0
	}
	var total int64
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, tr := range q.Tables {
		st, ok := e.tables[tr.Name]
		if !ok {
			continue
		}
		if st.tab.Format == catalog.Dataset {
			if st.ds == nil || st.ds.manifest == nil {
				continue
			}
			for i, ps := range st.ds.parts { // aligned with the manifest: swapped as a pair
				if !ps.resident.Load() {
					total += st.ds.manifest.Parts[i].Size
				}
			}
			continue
		}
		if st.tab.Path != "" && !st.resident.Load() {
			if fi, err := os.Stat(st.tab.Path); err == nil {
				total += fi.Size()
			}
		}
	}
	return total
}
