package engine

import (
	"fmt"

	"rawdb/internal/exec"
	"rawdb/internal/vector"
)

// loadAll reads every declared column of a table into memory — the
// traditional DBMS loading step. It reuses the JIT access paths as bulk
// loaders (the fastest way through the file), which is fair to the DBMS
// baseline: its loading is at least as efficient as any single query's scan.
// The loader keeps no positional structure: it never reads the file again.
func loadAll(st *tableState) ([]*vector.Vector, error) {
	tab := st.tab
	if st.src == nil {
		return nil, fmt.Errorf("engine: cannot load format %s", tab.Format)
	}
	all := make([]int, len(tab.Schema))
	for i := range all {
		all[i] = i
	}
	a, err := st.src.access(tab, positions{}, all, scanGenerated)
	if err != nil {
		return nil, err
	}
	op, _, err := st.src.scan(tab, positions{}, scanReq{
		mode: a.mode, span: wholeTable, cols: all, batch: vector.DefaultBatchSize})
	if err != nil {
		return nil, err
	}
	return exec.Collect(op)
}

// ensureLoaded materialises every column of a table in memory (the DBMS
// baseline's loading step), charged to the first query that touches it:
// loaded says this call did the loading.
func (e *Engine) ensureLoaded(st *tableState) (loaded bool, err error) {
	if st.loaded != nil {
		return false, nil
	}
	cols, err := loadAll(st)
	if err != nil {
		return false, err
	}
	st.loaded = cols
	if len(cols) > 0 {
		st.nrows = int64(cols[0].Len())
	}
	return true, nil
}
