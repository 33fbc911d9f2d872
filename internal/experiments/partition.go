package experiments

import (
	"fmt"

	"rawdb/internal/catalog"
	"rawdb/internal/engine"
	"rawdb/internal/posmap"
	"rawdb/internal/workload"
)

// RunPartition measures the dataset layer: the same sorted-key rows
// registered as one file and split across 1→64 partitions.
//
// Three timings per file count:
//
//   - cold: first selective query, fresh engine (per-partition scans,
//     synopses built as a side effect) — the per-file overhead sweep;
//   - warm: the same query again with zone maps on — partition pruning
//     opens only the files whose col1 range can match (the skipped count is
//     reported), every other partition excluded before a byte is read;
//   - warm_noprune: the warm repeat with zone maps off — what the repeat
//     costs when every partition must be consulted.
//
// col1 ascends across the whole dataset, so a 5%-selectivity predicate
// qualifies ~5% of the partitions; with pruning the warm time should stay
// roughly flat as the file count grows, while warm_noprune scales with it.
func RunPartition(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	ds, err := workload.NarrowSorted(cfg.NarrowRows, 1)
	if err != nil {
		return nil, err
	}
	q := fmt.Sprintf("SELECT SUM(col2), COUNT(*) FROM t WHERE col1 < %d", workload.Threshold(0.05))

	t := &Table{ID: "partition", Title: "Partitioned datasets: file-count sweep over a sorted-key split",
		Header: []string{"parts", "cold_s", "warm_s", "warm_noprune_s", "parts_skipped"}}
	for _, parts := range []int{1, 2, 4, 8, 16, 32, 64} {
		chunks := workload.SplitRows(ds.CSV, parts)
		dparts := make([]engine.DataPart, len(chunks))
		for i, c := range chunks {
			dparts[i] = engine.DataPart{Format: catalog.CSV, Data: c}
		}
		newEngine := func(zonemaps bool) (*engine.Engine, error) {
			e := engine.New(engine.Config{
				Strategy:        engine.StrategyJIT,
				PosMapPolicy:    posmap.Policy{EveryK: 10},
				DisableZoneMaps: !zonemaps,
			})
			if err := e.RegisterDatasetParts("t", dparts, ds.Schema); err != nil {
				return nil, err
			}
			return e, nil
		}

		var skipped int
		cold, err := timeQuery(cfg.Repeats, func() error {
			e, err := newEngine(true)
			if err != nil {
				return err
			}
			_, err = e.Query(q)
			return err
		})
		if err != nil {
			return nil, err
		}

		// Warm with pruning: one engine, cold pass outside the timer.
		e, err := newEngine(true)
		if err != nil {
			return nil, err
		}
		if _, err := e.Query(q); err != nil {
			return nil, err
		}
		warm, err := timeQuery(cfg.Repeats, func() error {
			res, err := e.Query(q)
			if err == nil {
				skipped = res.Stats.PartitionsSkipped
			}
			return err
		})
		if err != nil {
			return nil, err
		}

		// Warm without pruning.
		en, err := newEngine(false)
		if err != nil {
			return nil, err
		}
		if _, err := en.Query(q); err != nil {
			return nil, err
		}
		noprune, err := timeQuery(cfg.Repeats, func() error {
			_, err := en.Query(q)
			return err
		})
		if err != nil {
			return nil, err
		}

		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", parts), secs(cold),
			secs(warm), secs(noprune), fmt.Sprintf("%d", skipped)})
	}
	return t, nil
}
