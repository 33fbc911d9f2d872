package engine

import (
	"fmt"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/obs"
	"rawdb/internal/shred"
	"rawdb/internal/vector"
)

// morselsPerWorker oversubscribes the morsel count so slow morsels (denser
// rows, colder cache lines) do not leave workers idle at the tail.
const morselsPerWorker = 2

// morselCount returns the morsel target of the current morsel-scan build
// (the dataset planner overrides the default per partition).
func (pc *planCtx) morselCount() int {
	if pc.morselTarget > 0 {
		return pc.morselTarget
	}
	return pc.workers * morselsPerWorker
}

// minMorsels is the smallest morsel count worth a parallel plan: 2 for a
// standalone file (1 morsel = the serial plan with exchange overhead), 1 for
// a dataset partition (it interleaves with its siblings).
func (pc *planCtx) minMorsels() int {
	if pc.allowSingleMorsel {
		return 1
	}
	return 2
}

// planParallel attempts the morsel-driven parallel plan: the raw file is cut
// into record-aligned morsels, a cloned scan → filter (→ partial aggregate)
// pipeline runs per morsel on a worker pool (exec.Parallel), and merge
// operators above the exchange — ordered concatenation for plain queries, a
// final combining aggregate (with exact float-SUM transport) plus HAVING for
// grouped/aggregate ones, and a shared-build hash probe for joins —
// reproduce the serial plan's output byte for byte.
//
// ok is false when the query must fall back to the serial plan. Every
// decline site records a structured reason (declineParallel) that surfaces
// in Explain, Stats, the trace, and an obs event; the remaining fallbacks
// are ROOT tables (library-paced access) and files too small to yield two
// morsels.
func (pc *planCtx) planParallel(r *resolvedQuery) (exec.Operator, bool, error) {
	if r.join != nil {
		return pc.planParallelJoin(r)
	}
	st := r.tables[0].st
	tab := st.tab

	hasAgg := len(r.having) > 0
	for _, it := range r.items {
		if it.isAgg {
			hasAgg = true
		}
	}
	aggPath := hasAgg || len(r.groupBy) > 0

	filterCols, outputCols := r.neededColumns()
	cols := append(append([]int{}, filterCols[0]...), outputCols[0]...)
	sortInts(cols)
	cols = dedupInts(cols)
	if len(cols) == 0 {
		if !aggPath {
			return nil, pc.declineParallel(fallbackInternal, "no columns to materialise"), nil
		}
		// Unfiltered COUNT(*): materialise one column so morsel batches
		// carry a row count (zero-column scans cannot). Pick the cheapest
		// fixed-width column — never a wide string just because it is first.
		cols = []int{countColumn(tab)}
	}

	// Shared column layout of every morsel pipeline: cols in sorted order.
	needSlot := make(map[int]int, len(cols))
	for i, c := range cols {
		needSlot[c] = i
	}

	var parts []exec.Operator
	var done func() error
	var err error
	if st.ds != nil {
		// Datasets interleave morsels across partitions (residual filters
		// applied per partition inside, since cache states differ).
		var ok bool
		parts, done, ok, err = pc.datasetMorsels(r, cols, needSlot)
		if err != nil || !ok {
			return nil, false, err
		}
	} else {
		var residual []boundPred
		var ok bool
		parts, done, residual, ok, err = pc.morselScans(r, cols, r.filters[0])
		if err != nil || !ok {
			return nil, false, err
		}
		// Clone the residual filter (predicates the morsel scans did not
		// absorb) onto each morsel pipeline.
		parts, err = filterParts(parts, residual, needSlot)
		if err != nil {
			return nil, false, err
		}
	}

	bs := pc.e.cfg.BatchSize
	if !aggPath {
		mspans := pc.wrapMorsels(parts)
		par, err := exec.NewParallel(parts, pc.workers, bs, nil)
		if err != nil {
			return nil, false, err
		}
		par.SetContext(pc.ctx)
		pc.deferMerge(done)
		xop, xspan := pc.wrapExchange(par, len(parts), mspans)
		p := &pipe{op: xop, pos: make(map[boundRef]int), rid: map[int]int{0: -1}, span: xspan}
		for i, c := range cols {
			p.pos[boundRef{0, c}] = i
		}
		op, err := pc.finish(r, p)
		if err != nil {
			return nil, false, err
		}
		return op, true, nil
	}

	pc.deferMerge(done)
	op, err := pc.finishParallelAgg(r, parts, needSlot)
	if err != nil {
		return nil, false, err
	}
	return op, true, nil
}

// planParallelJoin is the morsel-parallel join plan: the build side (table 1)
// is scanned morsel-parallel into a shared partitioned hash table
// (exec.SharedBuild), and one probe pipeline per probe-side morsel
// (exec.HashProbe) runs on the exchange's worker pool. Probe morsels replay
// in file order with matches in build stream order, so the joined stream —
// and everything the serial finish() stacks above it (aggregation, HAVING,
// projection) — is byte-identical to the serial HashJoin plan.
func (pc *planCtx) planParallelJoin(r *resolvedQuery) (exec.Operator, bool, error) {
	filterCols, outputCols := r.neededColumns()
	var cols [2][]int
	var slots [2]map[int]int
	for t := 0; t < 2; t++ {
		c := append(append([]int{}, filterCols[t]...), outputCols[t]...)
		sortInts(c)
		c = dedupInts(c)
		// The join key is always a filter column, so c is never empty.
		cols[t] = c
		m := make(map[int]int, len(c))
		for i, cc := range c {
			m[cc] = i
		}
		slots[t] = m
	}

	// Build side: its morsels feed a private exchange under the shared
	// build. A single morsel is fine here — the probe side provides the
	// parallelism, and the build-side parse still overlaps probe scans.
	pc.allowSingleMorsel = true
	buildParts, buildDone, ok, err := pc.sideMorsels(r, 1, cols[1], slots[1])
	pc.allowSingleMorsel = false
	if err != nil || !ok {
		return nil, false, err
	}
	bs := pc.e.cfg.BatchSize
	bspans := pc.wrapMorsels(buildParts)
	bpar, err := exec.NewParallel(buildParts, pc.workers, bs, nil)
	if err != nil {
		return nil, false, err
	}
	bpar.SetContext(pc.ctx)
	pc.deferMerge(buildDone)
	bop, bspan := pc.opSpan(bpar,
		fmt.Sprintf("build-exchange[workers=%d morsels=%d]", pc.workers, len(buildParts)), bspans...)
	build, err := exec.NewSharedBuild(bop, slots[1][r.join.rightCol], pc.workers)
	if err != nil {
		return nil, false, err
	}

	// Probe side: one HashProbe per morsel against the shared table.
	probeParts, probeDone, ok, err := pc.sideMorsels(r, 0, cols[0], slots[0])
	if err != nil || !ok {
		return nil, false, err
	}
	for i, part := range probeParts {
		hp, err := exec.NewHashProbe(part, build, slots[0][r.join.leftCol])
		if err != nil {
			return nil, false, err
		}
		probeParts[i] = hp
	}
	mspans := pc.wrapMorsels(probeParts)
	par, err := exec.NewParallel(probeParts, pc.workers, bs, nil)
	if err != nil {
		return nil, false, err
	}
	par.SetContext(pc.ctx)
	pc.deferMerge(probeDone)
	children := mspans
	if bspan != nil {
		children = append(children, bspan)
	}
	xop, xspan := pc.opSpan(par,
		fmt.Sprintf("probe-exchange[workers=%d morsels=%d]", pc.workers, len(probeParts)), children...)
	pc.pathf("par:hashjoin(%s,%s)", r.tables[0].st.tab.Name, r.tables[1].st.tab.Name)

	p := &pipe{op: xop, pos: make(map[boundRef]int), rid: map[int]int{0: -1, 1: -1}, span: xspan}
	for i, c := range cols[0] {
		p.pos[boundRef{0, c}] = i
	}
	w := len(cols[0])
	for i, c := range cols[1] {
		p.pos[boundRef{1, c}] = w + i
	}
	op, err := pc.finish(r, p)
	if err != nil {
		return nil, false, err
	}
	return op, true, nil
}

// sideMorsels builds the morsel parts for one side of a join. The side is
// wrapped as a single-table shadow query — exactly how dataset partitions
// are planned — so the ordinary morsel machinery (every strategy, every
// format, datasets included) plans it unchanged, with residual predicates
// cloned onto each morsel.
func (pc *planCtx) sideMorsels(r *resolvedQuery, t int, cols []int, needSlot map[int]int) ([]exec.Operator, func() error, bool, error) {
	bt := r.tables[t]
	shadow := shadowQuery(bt.alias, bt.st, r.filters[t], cols, bt.st.tab.Schema)
	if bt.st.ds != nil {
		return pc.datasetMorsels(shadow, cols, needSlot)
	}
	parts, done, residual, ok, err := pc.morselScans(shadow, cols, r.filters[t])
	if err != nil || !ok {
		return nil, nil, false, err
	}
	parts, err = filterParts(parts, residual, needSlot)
	if err != nil {
		return nil, nil, false, err
	}
	return parts, done, true, nil
}

// dedupInts removes duplicates from a sorted int slice in place: a column in
// both WHERE and SELECT must occupy one morsel slot, not two.
func dedupInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// countColumn picks the column an unfiltered COUNT(*) materialises: batches
// need one column to carry a row count, and a fixed-width numeric column is
// the cheapest to parse — never a wide string column just because it sits
// first in the schema.
func countColumn(tab *catalog.Table) int {
	for i, c := range tab.Schema {
		if c.Type == vector.Int64 || c.Type == vector.Float64 {
			return i
		}
	}
	return 0
}

// wrapMorsels wraps each morsel pipeline in its own span, one
// chrome://tracing lane per morsel so concurrent workers render side by
// side. Returns the spans for re-parenting under the exchange span (nil when
// tracing is off).
func (pc *planCtx) wrapMorsels(parts []exec.Operator) []*obs.Span {
	if pc.trace == nil {
		return nil
	}
	spans := make([]*obs.Span, len(parts))
	for i := range parts {
		s := pc.trace.NewSpan(fmt.Sprintf("morsel[%d]", i))
		s.SetLane(i + 1)
		parts[i] = exec.WithSpan(parts[i], s)
		spans[i] = s
	}
	return spans
}

// wrapExchange wraps the parallel exchange operator in its span, re-parenting
// the morsel spans beneath it.
func (pc *planCtx) wrapExchange(op exec.Operator, nmorsels int, children []*obs.Span) (exec.Operator, *obs.Span) {
	return pc.opSpan(op, fmt.Sprintf("exchange[workers=%d morsels=%d]", pc.workers, nmorsels), children...)
}

// filterParts clones a Filter for the residual predicates onto each morsel
// pipeline (no-op when the residual is empty). needSlot maps table column
// indexes onto the shared morsel layout.
func filterParts(parts []exec.Operator, residual []boundPred, needSlot map[int]int) ([]exec.Operator, error) {
	if len(residual) == 0 {
		return parts, nil
	}
	eps := make([]exec.Pred, len(residual))
	for i, bp := range residual {
		slot, ok := needSlot[bp.col]
		if !ok {
			return nil, fmt.Errorf("engine: internal: parallel filter column %d not materialised", bp.col)
		}
		eps[i] = exec.Pred{Col: slot, Op: bp.op, I64: bp.i64, F64: bp.f64}
	}
	for i, part := range parts {
		f, err := exec.NewFilter(part, eps)
		if err != nil {
			return nil, err
		}
		parts[i] = f
	}
	return parts, nil
}

// outRef locates one query aggregate in the combining stage's output: either
// a final aggregate column or a divide column appended above them (AVG).
type outRef struct {
	div bool
	idx int
}

// finishParallelAgg splits aggregation into a per-morsel partial aggregate
// and a final combining aggregate above the exchange. COUNT partials merge by
// summation; MIN/MAX and integer SUM merge by re-applying the same function.
// Float SUM travels as a (Sum, SumErr) pair — the correctly rounded morsel
// sum plus the residue rounding dropped — merged exactly by MergeSum, so the
// total is bit-identical to the serial sum. AVG is decomposed into final SUM
// and COUNT combined by a Divide column above the final aggregate, and HAVING
// filters above that. Group keys stay in first-encounter order because
// morsels partition the file in order and the exchange replays partial
// outputs in morsel order.
func (pc *planCtx) finishParallelAgg(r *resolvedQuery, parts []exec.Operator,
	needSlot map[int]int) (exec.Operator, error) {
	tab := r.tables[0].st.tab
	groupIdx := make([]int, len(r.groupBy))
	for i, g := range r.groupBy {
		slot, ok := needSlot[g.col]
		if !ok {
			return nil, fmt.Errorf("engine: internal: parallel group column %d not materialised", g.col)
		}
		groupIdx[i] = slot
	}

	// Three registries build the two-stage plan, each deduplicating like the
	// serial addSpec: partial aggregates computed per morsel, final
	// aggregates combining them above the exchange, and divide columns
	// (AVG = final SUM ÷ final COUNT) appended above the final aggregate.
	var partials, finals []exec.AggSpec
	type divSpec struct {
		num, den int // final-aggregate spec indexes
		name     string
	}
	var divides []divSpec
	addPartial := func(f exec.AggFunc, col int, name string) int {
		for i, s := range partials {
			if s.Func == f && s.Col == col {
				return i
			}
		}
		partials = append(partials, exec.AggSpec{Func: f, Col: col, As: name})
		return len(partials) - 1
	}
	// pcol maps a partial spec index onto its column in the exchange stream
	// (group keys first, then the partials in registration order).
	pcol := func(pi int) int { return len(groupIdx) + pi }
	addFinal := func(f exec.AggFunc, col, col2 int, name string) int {
		for i, s := range finals {
			if s.Func == f && s.Col == col && s.Col2 == col2 {
				return i
			}
		}
		finals = append(finals, exec.AggSpec{Func: f, Col: col, Col2: col2, As: name})
		return len(finals) - 1
	}
	addDivide := func(num, den int, name string) int {
		for i, d := range divides {
			if d.num == num && d.den == den {
				return i
			}
		}
		divides = append(divides, divSpec{num: num, den: den, name: name})
		return len(divides) - 1
	}

	// decompose registers the partial/final (and divide) specs implementing
	// one query aggregate and returns where its value lands.
	decompose := func(it boundItem) (outRef, error) {
		col := -1
		isFloat := false
		if !it.star {
			slot, ok := needSlot[it.ref.col]
			if !ok {
				return outRef{}, fmt.Errorf("engine: internal: aggregate input %q not materialised", it.name)
			}
			col = slot
			isFloat = tab.Schema[it.ref.col].Type == vector.Float64
		}
		switch {
		case it.agg == exec.Count:
			p := addPartial(exec.Count, col, it.name)
			return outRef{idx: addFinal(exec.Sum, pcol(p), -1, it.name)}, nil
		case it.agg == exec.Min || it.agg == exec.Max:
			p := addPartial(it.agg, col, it.name)
			return outRef{idx: addFinal(it.agg, pcol(p), -1, it.name)}, nil
		case it.agg == exec.Sum && !isFloat:
			p := addPartial(exec.Sum, col, it.name)
			return outRef{idx: addFinal(exec.Sum, pcol(p), -1, it.name)}, nil
		case it.agg == exec.Sum:
			hi := addPartial(exec.Sum, col, it.name)
			lo := addPartial(exec.SumErr, col, it.name+"#err")
			return outRef{idx: addFinal(exec.MergeSum, pcol(hi), pcol(lo), it.name)}, nil
		case it.agg == exec.Avg && isFloat:
			hi := addPartial(exec.Sum, col, it.name+"#sum")
			lo := addPartial(exec.SumErr, col, it.name+"#err")
			n := addPartial(exec.Count, -1, "#rows")
			fs := addFinal(exec.MergeSum, pcol(hi), pcol(lo), it.name+"#sum")
			fn := addFinal(exec.Sum, pcol(n), -1, "#rows")
			return outRef{div: true, idx: addDivide(fs, fn, it.name)}, nil
		case it.agg == exec.Avg:
			s := addPartial(exec.Sum, col, it.name+"#sum")
			n := addPartial(exec.Count, -1, "#rows")
			fs := addFinal(exec.Sum, pcol(s), -1, it.name+"#sum")
			fn := addFinal(exec.Sum, pcol(n), -1, "#rows")
			return outRef{div: true, idx: addDivide(fs, fn, it.name)}, nil
		}
		return outRef{}, fmt.Errorf("engine: internal: no parallel form for aggregate %s", it.agg)
	}

	refs := make([]outRef, len(r.items))
	aggOut := make([]int, len(r.items))
	for i, it := range r.items {
		if !it.isAgg {
			for gi, g := range r.groupBy {
				if g == it.ref {
					aggOut[i] = gi
				}
			}
			continue
		}
		ref, err := decompose(it)
		if err != nil {
			return nil, err
		}
		refs[i] = ref
	}
	havingRefs := make([]outRef, len(r.having))
	for i, h := range r.having {
		ref, err := decompose(h.item)
		if err != nil {
			return nil, err
		}
		havingRefs[i] = ref
	}
	if len(partials) == 0 {
		// Bare GROUP BY projection (SELECT g FROM t GROUP BY g): stage a
		// hidden COUNT so both aggregate stages have a spec; the projection
		// drops it.
		if _, err := decompose(boundItem{agg: exec.Count, isAgg: true, star: true, name: "#rows"}); err != nil {
			return nil, err
		}
	}

	// Ungrouped partials emit one row even when their morsel filtered down
	// to nothing (COUNT = 0 with identity-less zero aggregates); those rows
	// must not feed MIN/MAX/SUM merging. Reuse any registered COUNT partial
	// as the guard, or stage a hidden one, and filter empty partials out.
	// Grouped partials only emit groups that saw rows, so no guard is needed
	// there.
	guardPos := -1
	if len(groupIdx) == 0 {
		gpi := -1
		for i, s := range partials {
			if s.Func == exec.Count {
				gpi = i
				break
			}
		}
		if gpi < 0 {
			gpi = addPartial(exec.Count, -1, "#partial_rows")
		}
		guardPos = pcol(gpi)
	}

	// Every output position is now known: final aggregate emits the group
	// keys then the finals, and each Divide appends one column above that.
	finalBase := len(groupIdx)
	divBase := finalBase + len(finals)
	posOf := func(ref outRef) int {
		if ref.div {
			return divBase + ref.idx
		}
		return finalBase + ref.idx
	}
	for i, it := range r.items {
		if it.isAgg {
			aggOut[i] = posOf(refs[i])
		}
	}

	for i, part := range parts {
		agg, err := exec.NewAggregate(part, partials, groupIdx)
		if err != nil {
			return nil, err
		}
		parts[i] = agg
	}
	mspans := pc.wrapMorsels(parts)
	par, err := exec.NewParallel(parts, pc.workers, pc.e.cfg.BatchSize, nil)
	if err != nil {
		return nil, err
	}
	par.SetContext(pc.ctx)
	child, top := pc.wrapExchange(par, len(parts), mspans)
	if guardPos >= 0 {
		f, err := exec.NewFilter(child, []exec.Pred{{Col: guardPos, Op: exec.Gt, I64: 0}})
		if err != nil {
			return nil, err
		}
		child = f
	}

	finalGroup := make([]int, len(groupIdx))
	for i := range finalGroup {
		finalGroup[i] = i
	}
	fagg, err := exec.NewAggregate(child, finals, finalGroup)
	if err != nil {
		return nil, err
	}
	out, top := pc.opSpan(fagg,
		fmt.Sprintf("final-aggregate[groups=%d aggs=%d]", len(finalGroup), len(finals)), top)
	if len(divides) > 0 {
		for _, d := range divides {
			dv, err := exec.NewDivide(out, finalBase+d.num, finalBase+d.den, d.name)
			if err != nil {
				return nil, err
			}
			out = dv
		}
		out, top = pc.opSpan(out, fmt.Sprintf("divide[%d]", len(divides)), top)
	}
	if len(r.having) > 0 {
		preds := make([]exec.Pred, len(r.having))
		for i, h := range r.having {
			preds[i] = exec.Pred{Col: posOf(havingRefs[i]), Op: h.op, I64: h.i64, F64: h.f64}
		}
		f, err := exec.NewFilter(out, preds)
		if err != nil {
			return nil, err
		}
		out, top = pc.opSpan(f, fmt.Sprintf("having[%d]", len(preds)), top)
	}
	names := make([]string, len(r.items))
	for i, it := range r.items {
		names[i] = it.name
	}
	pr, err := exec.NewProject(out, aggOut, names)
	if err != nil {
		return nil, err
	}
	fin, _ := pc.opSpan(pr, "project", top)
	return fin, nil
}

// skipMorsels drops row ranges a zone map excludes before they are ever
// dispatched to a worker, counting them in the query stats. At least one
// range is always kept (operator shapes need one part), so a lone range is
// not even tested; callers hand the same skip test to the per-morsel scans,
// whose scan-level check empties a kept range if it too is excluded.
// (Shred-backed mem morsels use memSkip instead — MemScan has no scan-level
// skip hook.)
func (pc *planCtx) skipMorsels(ranges []span, skip func(lo, hi int64) bool) []span {
	if skip == nil || len(ranges) < 2 {
		return ranges
	}
	kept := make([]span, 0, len(ranges))
	for _, rr := range ranges {
		if skip(rr.lo, rr.hi) {
			pc.stats.MorselsSkipped++
			continue
		}
		kept = append(kept, rr)
	}
	if len(kept) == 0 {
		pc.stats.MorselsSkipped--
		kept = append(kept, ranges[0])
	}
	return kept
}

// shredPush decides the pushdown shape of scans over already-cached full
// shreds, where no capture is involved: absorb whenever pushdown is on. (Scans
// over the raw file arbitrate against capture; see rawScans.)
func (pc *planCtx) shredPush(candidates []boundPred) (pushable, residual []boundPred) {
	if !pc.pushdown {
		return nil, candidates
	}
	return candidates, nil
}

// morselScans builds one base scan per morsel materialising cols (sorted),
// plus the merge-on-completion hook that publishes per-morsel cache
// fragments (positional map, structural index, zone maps, captured column
// shreds) once every worker finished. candidates are the predicates on cols;
// JIT morsel scans absorb them (and zone maps exclude whole morsels before
// dispatch), with the unabsorbed residual returned for the per-morsel
// Filter. ok is false when this strategy × format × cache state has no
// parallel form and the serial plan must run.
func (pc *planCtx) morselScans(r *resolvedQuery, cols []int, candidates []boundPred) (parts []exec.Operator, done func() error, residual []boundPred, ok bool, err error) {
	probeMark := len(pc.probes)
	parts, done, residual, ok, err = pc.morselScansInner(r, cols, candidates)
	if ok && err == nil {
		// One heat sample per parallel table scan, mirroring baseScan on the
		// serial side. Registered as an onFinish hook, so a later decline of
		// the whole parallel attempt rolls it back with the hook list.
		if st := r.tables[0].st; st.tab.Format != catalog.Memory {
			pc.noteScanHeat(st, probeMark)
		}
	}
	return parts, done, residual, ok, err
}

func (pc *planCtx) morselScansInner(r *resolvedQuery, cols []int, candidates []boundPred) (parts []exec.Operator, done func() error, residual []boundPred, ok bool, err error) {
	st := r.tables[0].st
	tab := st.tab
	bs := pc.e.cfg.BatchSize
	nm := pc.morselCount()

	// Memory tables and the loaded-DBMS baseline scan row ranges of resident
	// vectors.
	if tab.Format == catalog.Memory {
		parts, err := pc.memMorsels(tab, st.loaded, cols, nm, bs)
		if err != nil {
			return nil, nil, nil, false, err
		}
		if parts == nil {
			return nil, nil, nil, pc.declineParallel(fallbackSmallFile,
				"memory table %s yields fewer than %d morsels", tab.Name, pc.minMorsels()), nil
		}
		pc.pathf("par[%d]:memory:scan(%s)", len(parts), tab.Name)
		return parts, nil, candidates, true, nil
	}
	if pc.strategy == StrategyDBMS {
		if err := pc.e.ensureLoaded(st, pc.stats); err != nil {
			return nil, nil, nil, false, err
		}
		parts, err := pc.memMorsels(tab, st.loaded, cols, nm, bs)
		if err != nil {
			return nil, nil, nil, false, err
		}
		if parts == nil {
			return nil, nil, nil, pc.declineParallel(fallbackSmallFile,
				"loaded table %s yields fewer than %d morsels", tab.Name, pc.minMorsels()), nil
		}
		pc.pathf("par[%d]:dbms:memscan(%s)", len(parts), tab.Name)
		return parts, nil, candidates, true, nil
	}

	var kind scanKind
	switch pc.strategy {
	case StrategyExternal:
		kind = scanExternal
	case StrategyInSitu:
		kind = scanGeneric
	case StrategyJIT, StrategyShreds:
		kind = scanGenerated
	default:
		return nil, nil, nil, pc.declineParallel(fallbackInternal,
			"no parallel planner for strategy %s", pc.strategy), nil
	}

	// All requested columns cached as full shreds: scan row ranges of the pool
	// vectors, no raw access at all. Predicates are absorbed into the morsel
	// scans (vectorized, selection-vector output) and zone maps exclude whole
	// morsels before dispatch.
	if kind == scanGenerated && pc.useCache {
		cached := make([]*shred.Shred, 0, len(cols))
		for _, c := range cols {
			s := pc.e.shreds.LookupFull(shred.Key{Table: tab.Name, Col: c})
			if s == nil {
				break
			}
			cached = append(cached, s)
		}
		if len(cached) == len(cols) && len(cols) > 0 {
			vecs := make([]*vector.Vector, len(cols))
			for i, s := range cached {
				vecs[i] = s.Vector()
			}
			pushable, rest := pc.shredPush(candidates)
			var skip func(start, end int64) bool
			if pc.zonemaps {
				skip = synSkip(st.synopsis(), candidates)
			}
			parts, err := pc.memVectorMorselsPush(tab, vecs, cols, nm, bs, pushable, skip)
			if err != nil {
				return nil, nil, nil, false, err
			}
			if parts == nil {
				return nil, nil, nil, pc.declineParallel(fallbackSmallFile,
					"cached columns of %s yield fewer than %d morsels", tab.Name, pc.minMorsels()), nil
			}
			pc.stats.ShredHits += len(cols)
			pc.noteStructHit(tab.Name, "shred", len(cols))
			pc.pathf("par[%d]:shred:scan(%s)", len(parts), tab.Name)
			pc.notePush(tab.Name, len(pushable), skip != nil)
			return parts, nil, rest, true, nil
		}
		// Partially cached column sets fall through: the raw file is still
		// the source of truth, and an unpruned pass recaptures every column
		// as a full shred (Put overwrites the partial entries harmlessly).
	}

	// Raw file: row-range morsels where rows are addressable (through the
	// positional structure, or natively), record-aligned byte-range morsels
	// over a cold text image — each of those filling a private fragment that
	// merges in morsel order on completion, so what is installed is identical
	// to a serial scan's.
	bt := r.tables[0]
	a, err := st.src.access(tab, bt.pos, cols, kind)
	if _, noReader := err.(noReaderError); noReader {
		return nil, nil, nil, pc.declineParallel(fallbackUnsupportedFormat,
			"%s tool has no parallel %s scan", kind, tab.Format), nil
	}
	if err != nil {
		return nil, nil, nil, false, err
	}
	spans, splittable := st.src.split(bt.pos, a.mode, nm)
	if !splittable {
		return nil, nil, nil, pc.declineParallel(fallbackRootTable,
			"%s tables page through the format library at its own pace", tab.Format), nil
	}
	if len(spans) < pc.minMorsels() {
		return nil, nil, nil, pc.declineParallel(fallbackSmallFile,
			"%s splits into %d morsels (need %d)", tab.Name, len(spans), pc.minMorsels()), nil
	}
	parts, done, absorbed, _, err := pc.rawScans(rawScan{bt: bt, kind: kind, cols: cols,
		pushable: candidates, skip: candidates}, a, spans)
	if err != nil {
		return nil, nil, nil, false, err
	}
	residual = candidates
	if len(absorbed) > 0 {
		residual = nil
	}
	return parts, done, residual, true, nil
}

// memMorsels builds row-range MemScans over resident column vectors.
func (pc *planCtx) memMorsels(tab *catalog.Table, loaded []*vector.Vector, cols []int,
	nm, bs int) ([]exec.Operator, error) {
	if loaded == nil {
		return nil, nil
	}
	vecs := make([]*vector.Vector, len(cols))
	for i, c := range cols {
		vecs[i] = loaded[c]
	}
	return memVectorMorsels(tab, vecs, cols, nm, bs, pc.minMorsels())
}

// memVectorMorsels builds row-range MemScans over arbitrary vectors aligned
// with cols (loaded DBMS columns, memory tables, or full column shreds).
func memVectorMorsels(tab *catalog.Table, vecs []*vector.Vector, cols []int,
	nm, bs, minParts int) ([]exec.Operator, error) {
	return buildMemMorsels(tab, vecs, cols, nm, bs, nil, nil, minParts)
}

// memVectorMorselsPush builds row-range morsels over full column shreds with
// pushdown: zone maps exclude whole morsels before dispatch and the morsel
// scans absorb the predicates vectorized (Col rebound to the output slot).
func (pc *planCtx) memVectorMorselsPush(tab *catalog.Table, vecs []*vector.Vector, cols []int,
	nm, bs int, pushable []boundPred, skip func(start, end int64) bool) ([]exec.Operator, error) {
	slotOf := make(map[int]int, len(cols))
	for i, c := range cols {
		slotOf[c] = i
	}
	preds := make([]exec.Pred, len(pushable))
	for i, bp := range pushable {
		preds[i] = exec.Pred{Col: slotOf[bp.col], Op: bp.op, I64: bp.i64, F64: bp.f64}
	}
	parts, err := buildMemMorsels(tab, vecs, cols, nm, bs, preds, pc.memSkip(skip), pc.minMorsels())
	if err == nil && len(preds) > 0 {
		for _, part := range parts {
			ms := part.(*exec.MemScan)
			pc.pushStats(func() (int64, int64) { return ms.RowsPruned(), 0 })
		}
	}
	return parts, err
}

// memSkip adapts a zone-map exclusion test into the range filter
// buildMemMorsels applies, counting skipped morsels. Mem scans have no
// scan-level skip hook, so unlike skipMorsels the all-excluded fallback is an
// explicitly empty range rather than a kept morsel.
func (pc *planCtx) memSkip(skip func(start, end int64) bool) func([]span) []span {
	if skip == nil {
		return nil
	}
	return func(ranges []span) []span {
		kept := make([]span, 0, len(ranges))
		for _, rr := range ranges {
			if skip(rr.lo, rr.hi) {
				pc.stats.MorselsSkipped++
				continue
			}
			kept = append(kept, rr)
		}
		if len(kept) == 0 {
			// Every morsel excluded: one empty range keeps the operator
			// shape (a MemScan over zero-row slices yields nothing).
			kept = append(kept, span{ranges[0].lo, ranges[0].lo})
		}
		return kept
	}
}

// buildMemMorsels is the shared core of the resident-vector morsel builders:
// split into row ranges, optionally drop zone-map-excluded ranges, and build
// one (predicate-absorbing) MemScan per surviving range.
func buildMemMorsels(tab *catalog.Table, vecs []*vector.Vector, cols []int,
	nm, bs int, preds []exec.Pred, rangeFilter func([]span) []span, minParts int) ([]exec.Operator, error) {
	if len(vecs) == 0 {
		return nil, nil
	}
	nrows := int64(vecs[0].Len())
	ranges := splitRows(nrows, nm)
	if len(ranges) < minParts {
		return nil, nil
	}
	if rangeFilter != nil {
		ranges = rangeFilter(ranges)
	}
	schema := make(vector.Schema, len(cols))
	for i, c := range cols {
		schema[i] = vector.Col{Name: tab.Schema[c].Name, Type: tab.Schema[c].Type}
	}
	parts := make([]exec.Operator, 0, len(ranges))
	for _, rr := range ranges {
		sliced := make([]*vector.Vector, len(vecs))
		for i, v := range vecs {
			sliced[i] = v.Slice(int(rr.lo), int(rr.hi))
		}
		ms, err := exec.NewMemScanPred(schema, sliced, bs, preds)
		if err != nil {
			return nil, err
		}
		parts = append(parts, ms)
	}
	return parts, nil
}

// morselCapture tees every batch of one raw-file scan into private per-column
// vectors (copies — batches are reused by the scans beneath); rawScans'
// completion hook publishes them as full columns to the shred pool — merge on
// completion, so workers never write shared cache state.
type morselCapture struct {
	child   exec.Operator
	types   []vector.Type
	reserve int // rows to allocate for at Open (the span's row hint)
	vecs    []*vector.Vector
	// eof says the child was drained: only then are vecs full columns.
	eof bool
}

func newMorselCapture(child exec.Operator, tab *catalog.Table, cols []int, reserve int) *morselCapture {
	c := &morselCapture{child: child, types: make([]vector.Type, len(cols)), reserve: reserve}
	for i, col := range cols {
		c.types[i] = tab.Schema[col].Type
	}
	return c
}

// publishCaptures puts the columns the captures teed — one capture per span,
// in span order — into the shred pool as full columns. One capture is adopted
// as it filled, clipped; several concatenate into a column allocated at its
// final size. A capture the plan did not drain holds no full column: nothing
// is put.
func (pc *planCtx) publishCaptures(tab *catalog.Table, cols []int, caps []*morselCapture) {
	if len(caps) == 0 {
		return
	}
	for _, mc := range caps {
		if !mc.eof {
			return
		}
	}
	for ci, c := range cols {
		full := caps[0].vecs[ci]
		if len(caps) > 1 {
			total := 0
			for _, mc := range caps {
				total += mc.vecs[ci].Len()
			}
			full = vector.New(tab.Schema[c].Type, total)
			for _, mc := range caps {
				full.AppendVector(mc.vecs[ci])
			}
		} else {
			full.Clip()
		}
		pc.e.shreds.Put(shred.Key{Table: tab.Name, Col: c}, nil, full)
	}
}

// Schema implements exec.Operator.
func (c *morselCapture) Schema() vector.Schema { return c.child.Schema() }

// Open implements exec.Operator.
func (c *morselCapture) Open() error {
	c.eof = false
	if c.vecs == nil {
		n := vector.DefaultBatchSize
		if c.reserve > n {
			n = c.reserve
		}
		c.vecs = make([]*vector.Vector, len(c.types))
		for i, t := range c.types {
			c.vecs[i] = vector.New(t, n)
		}
	}
	for _, v := range c.vecs {
		v.Reset()
	}
	return c.child.Open()
}

// Next implements exec.Operator.
func (c *morselCapture) Next() (*vector.Batch, error) {
	b, err := c.child.Next()
	if err != nil || b == nil {
		c.eof = err == nil
		return b, err
	}
	for i, v := range c.vecs {
		v.AppendVector(b.Cols[i])
	}
	return b, nil
}

// Close implements exec.Operator.
func (c *morselCapture) Close() error { return c.child.Close() }

var _ exec.Operator = (*morselCapture)(nil)

// splitRows cuts [0, nrows) into at most n contiguous non-empty row ranges.
func splitRows(nrows int64, n int) []span {
	if nrows <= 0 || n < 1 {
		return nil
	}
	if int64(n) > nrows {
		n = int(nrows)
	}
	ranges := make([]span, 0, n)
	var start int64
	for i := 1; i <= n; i++ {
		end := nrows * int64(i) / int64(n)
		if end <= start {
			continue
		}
		ranges = append(ranges, span{start, end})
		start = end
	}
	return ranges
}
