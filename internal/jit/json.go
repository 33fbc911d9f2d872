package jit

import (
	"bytes"
	"fmt"
	"slices"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/jsonidx"
	"rawdb/internal/offsets"
	"rawdb/internal/storage/jsonfile"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

// The JSON access paths follow the same generation discipline as the CSV
// ones: everything a general-purpose scan would decide per field — which
// dotted paths matter, where they nest, which conversion applies — is
// resolved at construction into a matcher tree of raw key bytes and
// monomorphic leaf actions. The per-row walk compares member keys against
// the tree and skips everything else; there are no map lookups, no
// reflection and no allocation per field.

// jsonTarget is the compiled action for one matched object member.
type jsonTarget struct {
	slot int // output vector slot, -1 when the value is not materialised
	rec  int // structural-index recording slot, -1 when not recorded
	typ  vector.Type
	sub  *jsonMatcher // non-nil: descend into a nested object
	// Pushed-down predicate checks and synopsis accumulator, resolved at
	// generation time like the conversion functions (nil when absent).
	testI func(int64) bool
	testF func(float64) bool
	acc   *synopsis.Acc
	// seen is the general walk (JSONScan.walks) that last found this leaf.
	seen int64
}

// jsonMatcher matches the members of one (possibly nested) object level.
type jsonMatcher struct {
	keys [][]byte
	tgts []*jsonTarget
}

func (m *jsonMatcher) target(segs []string) *jsonTarget {
	cur := m
	for d := 0; ; d++ {
		key := []byte(segs[d])
		var tgt *jsonTarget
		for i, k := range cur.keys {
			if bytes.Equal(k, key) {
				tgt = cur.tgts[i]
				break
			}
		}
		if tgt == nil {
			tgt = &jsonTarget{slot: -1, rec: -1}
			cur.keys = append(cur.keys, key)
			cur.tgts = append(cur.tgts, tgt)
		}
		if d == len(segs)-1 {
			return tgt
		}
		if tgt.sub == nil {
			tgt.sub = &jsonMatcher{}
		}
		cur = tgt.sub
	}
}

// jsonEntry is one path the matcher must act on.
type jsonEntry struct {
	path string
	slot int
	rec  int
	typ  vector.Type
}

// compileJSONMatcher builds the matcher tree for a set of dotted paths.
func compileJSONMatcher(entries []jsonEntry) (*jsonMatcher, int, error) {
	root := &jsonMatcher{}
	nleaves := 0
	for _, e := range entries {
		segs := jsonfile.SplitPath(e.path)
		for _, s := range segs {
			if s == "" {
				return nil, 0, fmt.Errorf("jit: json path %q has an empty segment", e.path)
			}
		}
		tgt := root.target(segs)
		if tgt.sub != nil {
			return nil, 0, fmt.Errorf("jit: json path %q conflicts with a longer declared path", e.path)
		}
		if tgt.slot >= 0 || tgt.rec >= 0 {
			return nil, 0, fmt.Errorf("jit: duplicate json path %q", e.path)
		}
		tgt.slot, tgt.rec, tgt.typ = e.slot, e.rec, e.typ
		nleaves++
	}
	return root, nleaves, nil
}

// JSONScan is the sequential JIT access path over a JSONL file: the first
// query walks every object front to back, building the structural index as a
// side effect; later queries jump via recorded value offsets, recording any
// newly touched paths adaptively (NewJSONMapScan, a RowScan).
type JSONScan struct {
	schema    vector.Schema
	batchSize int
	data      []byte

	matcher *jsonMatcher
	nexpect int
	rec     *jsonidx.Recorder
	recOffs []int64
	// The row skeleton: the layout of the last row the general walker read,
	// which the following rows are speculated to share (see walkSkeleton). It
	// is derived from the data, per scan, and is no part of the Spec.
	steps     []jsonStep
	tail      []byte // from the last value through the row's newline; nil: no skeleton
	litFrom   int    // while learning: where the next step's literal starts
	speculate bool   // cleared after maxSkeletonMisses consecutive departures
	misses    int    // consecutive departures
	walks     int64  // rows read by the general walker, this one included

	// Pushdown state: failed marks the current row rejected by a predicate;
	// rowsPruned counts the rows rejected so far.
	failed     bool
	rowsPruned int64
	nneed      int
	syn        *synopsis.Builder

	emitRID   bool
	ridSlot   int
	pos       int
	row       int64
	committed bool
	out       *vector.Batch
}

// PushStats reports how many rows pushed-down predicates short-circuited (a
// sequential scan skips no range).
func (s *JSONScan) PushStats() (rowsPruned, blocksSkipped int64) {
	return s.rowsPruned, 0
}

// NewJSONSequentialScan generates a sequential access path over a JSONL
// file: a per-query matcher tree covering exactly the requested paths, with
// conversions resolved per leaf. When idx is non-nil (and unpopulated) the
// scan records row starts and the value offsets of every requested path,
// committing them to the index at end of file.
func NewJSONSequentialScan(data []byte, t *catalog.Table, need []int,
	idx *jsonidx.Index, emitRID bool, batchSize int) (*JSONScan, error) {
	return NewJSONSequentialScanPush(data, t, need, idx, need, emitRID, batchSize, Pushdown{})
}

// NewJSONSequentialScanPush generates a sequential access path with pushed-
// down predicates inlined into the matcher's leaf actions: a failing check
// marks the row, and every later matched member is then only skipped over
// (offset recording still happens, so the structural index stays complete)
// without converting its value. Into idx it records the row starts and the
// value offsets of the columns of need that record lists, only: a path
// whose values its caller keeps otherwise (as a full column shred) costs
// the scan no offsets. opts.Skip is ignored (a sequential scan must visit
// every row).
func NewJSONSequentialScanPush(data []byte, t *catalog.Table, need []int, idx *jsonidx.Index,
	record []int, emitRID bool, batchSize int, opts Pushdown) (*JSONScan, error) {
	if t.Format != catalog.JSON {
		return nil, fmt.Errorf("jit: json scan got format %s", t.Format)
	}
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	schema, err := scanSchema(t, need, emitRID)
	if err != nil {
		return nil, err
	}
	if _, err := bindPreds(schema, need, opts.Preds); err != nil {
		return nil, err
	}
	s := &JSONScan{
		data:      data,
		schema:    schema,
		batchSize: batchSize,
		emitRID:   emitRID,
		ridSlot:   len(need),
		nneed:     len(need),
		syn:       opts.Syn,
		speculate: true,
	}
	s.out = vector.NewBatch(schema.Types(), batchSize)

	recSlot := make(map[string]int)
	if idx != nil {
		var paths []string
		for _, c := range need {
			if slices.Contains(record, c) {
				paths = append(paths, t.Schema[c].Name)
			}
		}
		s.rec = idx.Record(paths)
		staged := s.rec.Paths()
		s.recOffs = make([]int64, len(staged))
		for i, p := range staged {
			recSlot[p] = i
		}
	}
	entries := make([]jsonEntry, len(need))
	for i, c := range need {
		path := t.Schema[c].Name
		rec := -1
		if ri, ok := recSlot[path]; ok {
			rec = ri
		}
		switch t.Schema[c].Type {
		case vector.Int64, vector.Float64:
		default:
			return nil, fmt.Errorf("jit: unsupported JSON column type %s", t.Schema[c].Type)
		}
		entries[i] = jsonEntry{path: path, slot: i, rec: rec, typ: t.Schema[c].Type}
	}
	m, nleaves, err := compileJSONMatcher(entries)
	if err != nil {
		return nil, err
	}
	// Attach the inlined predicate checks and synopsis accumulators to the
	// compiled leaf targets.
	for _, c := range need {
		tgt := m.target(jsonfile.SplitPath(t.Schema[c].Name))
		tgt.acc = opts.Syn.Acc(c)
		if ps := predsFor(opts.Preds, c); len(ps) > 0 {
			if t.Schema[c].Type == vector.Int64 {
				tgt.testI = intPredTest(ps)
			} else {
				tgt.testF = floatPredTest(ps)
			}
		}
	}
	s.matcher, s.nexpect = m, nleaves
	return s, nil
}

// leaf acts on the value at vpos of a matched leaf member — record its
// offset, convert it with the pre-resolved conversion, observe, append, test —
// and returns the position past it. The general walker and the skeleton walker
// share it, so a value is treated the same whichever found it.
func (s *JSONScan) leaf(tgt *jsonTarget, vpos int) (int, error) {
	if tgt.rec >= 0 {
		s.recOffs[tgt.rec] = int64(vpos)
	}
	if tgt.slot < 0 || s.failed {
		// Unmaterialised leaf, or a pushed-down predicate already failed
		// this row: the offset is recorded above, the value is skipped
		// without conversion — the JSON form of "short-circuit the rest
		// of the row".
		return jsonfile.SkipValue(s.data, vpos), nil
	}
	if tgt.typ == vector.Int64 {
		v, end, err := jsonfile.Int64At(s.data, vpos, byteAt(s.data, vpos))
		if err != nil {
			return end, err
		}
		if tgt.acc != nil {
			tgt.acc.ObserveInt64(v)
		}
		col := s.out.Cols[tgt.slot]
		col.Int64s = append(col.Int64s, v)
		if tgt.testI != nil && !tgt.testI(v) {
			s.failed = true
		}
		return end, nil
	}
	v, end, err := jsonfile.Float64At(s.data, vpos, byteAt(s.data, vpos))
	if err != nil {
		return end, err
	}
	if tgt.acc != nil {
		tgt.acc.ObserveFloat64(v)
	}
	col := s.out.Cols[tgt.slot]
	col.Float64s = append(col.Float64s, v)
	if tgt.testF != nil && !tgt.testF(v) {
		s.failed = true
	}
	return end, nil
}

// walkObject runs the compiled matcher over one object: every member either
// hits a target (descend, or act on the leaf) or is skipped wholesale. It
// returns the position past the object and the number of leaf targets found.
// While s.speculate it also notes, per value it consumes, the bytes since the
// previous one and the target: the row's skeleton.
func (s *JSONScan) walkObject(m *jsonMatcher, pos int) (int, int, error) {
	data := s.data
	pos, ok := jsonfile.EnterObject(data, pos)
	if !ok {
		return pos, 0, fmt.Errorf("jit json scan: row %d: expected object at offset %d", s.row, pos)
	}
	found := 0
	for {
		ks, ke, vpos, next, done, err := jsonfile.NextMember(data, pos)
		if err != nil {
			return pos, found, fmt.Errorf("jit json scan: row %d: %w", s.row, err)
		}
		if done {
			return next, found, nil
		}
		key := data[ks:ke]
		var tgt *jsonTarget
		for i, k := range m.keys {
			if bytes.Equal(k, key) {
				tgt = m.tgts[i]
				break
			}
		}
		if tgt != nil && tgt.sub != nil {
			var sub int
			pos, sub, err = s.walkObject(tgt.sub, vpos)
			if err != nil {
				return pos, found, err
			}
			found += sub
			continue
		}
		if s.speculate {
			s.steps = append(s.steps, jsonStep{lit: data[s.litFrom:vpos], tgt: tgt})
		}
		if tgt == nil {
			pos = jsonfile.SkipValue(data, vpos)
		} else {
			// A path present twice would count for one that is absent and
			// leave the columns out of step.
			if tgt.seen == s.walks {
				return pos, found, fmt.Errorf("jit json scan: row %d key %q: path present twice", s.row, key)
			}
			tgt.seen = s.walks
			pos, err = s.leaf(tgt, vpos)
			if err != nil {
				return pos, found, fmt.Errorf("jit json scan: row %d key %q: %w", s.row, key, err)
			}
			found++
		}
		s.litFrom = pos
	}
}

// jsonStep is one value of a row skeleton: the literal bytes from the
// previous value (or the row start) up to this one — punctuation, keys,
// whitespace, nesting — and the leaf it belongs to (nil: a member the query
// does not read, skipped whatever it holds). lit aliases the learned row.
type jsonStep struct {
	lit []byte
	tgt *jsonTarget
}

// maxSkeletonMisses is the run of consecutive rows departing from the
// skeleton after which a scan stops speculating: a file with no stable layout
// then costs the general walker plus this many wasted attempts, not one per
// row.
const maxSkeletonMisses = 8

// walkSkeleton reads the row at pos through the learned skeleton: each
// literal must be there byte for byte, and the value after it is acted on
// directly. The general walker is a function of the bytes it reads, and
// between two values it reads exactly the literal (plus the first byte of the
// value, to see it is no whitespace), so on a row that matches it would make
// the same calls to leaf and SkipValue at the same offsets: same values, same
// recorded offsets. ok is false at the first departure — a literal differs, a
// value does not convert, the row ends early; the caller rolls the row back
// and hands it to the general walker, which also has the error text.
func (s *JSONScan) walkSkeleton(pos int) (next int, ok bool) {
	data := s.data
	for i := range s.steps {
		st := &s.steps[i]
		vpos, ok := jsonfile.AtLiteral(data, pos, st.lit)
		if !ok {
			return 0, false
		}
		if st.tgt == nil {
			pos = jsonfile.SkipValue(data, vpos)
			continue
		}
		var err error
		if pos, err = s.leaf(st.tgt, vpos); err != nil {
			return 0, false
		}
	}
	next = pos + len(s.tail)
	if next > len(data) || string(data[pos:next]) != string(s.tail) {
		return 0, false
	}
	return next, true
}

// walkRow reads the row at s.pos — through the skeleton when one is learned,
// through the general walker otherwise or when the row departs from it — and
// returns the start of the next row. The general walk of a row (re)learns the
// skeleton from it, so a file whose layout shifts adapts.
func (s *JSONScan) walkRow(n int) (int, error) {
	if s.tail != nil {
		if next, ok := s.walkSkeleton(s.pos); ok {
			s.misses = 0
			return next, nil
		}
		// Roll back what the attempt appended and decided. Whatever it fed
		// the synopsis accumulators the general walk feeds them again (it
		// converts the same values up to the departure), and min/max do not
		// count.
		s.failed = false
		for i := 0; i < s.nneed; i++ {
			s.out.Cols[i].Truncate(n)
		}
		s.tail = nil
		if s.misses++; s.misses >= maxSkeletonMisses {
			s.speculate = false
		}
	}
	s.walks++
	s.steps, s.litFrom = s.steps[:0], s.pos
	pos, found, err := s.walkObject(s.matcher, s.pos)
	if err != nil {
		return 0, err
	}
	if found != s.nexpect {
		return 0, fmt.Errorf("jit json scan: row %d: %d of %d required paths present",
			s.row, found, s.nexpect)
	}
	next := jsonfile.NextRow(s.data, pos)
	if s.speculate {
		s.tail = s.data[s.litFrom:next]
	}
	return next, nil
}

// Schema implements exec.Operator.
func (s *JSONScan) Schema() vector.Schema { return s.schema }

// Open implements exec.Operator.
func (s *JSONScan) Open() error {
	s.pos = 0
	s.row = 0
	s.failed = false
	s.tail, s.misses = nil, 0
	return nil
}

// Next implements exec.Operator.
func (s *JSONScan) Next() (*vector.Batch, error) {
	s.out.Reset()
	data := s.data
	n := 0
	for n < s.batchSize && s.pos < len(data) {
		if data[s.pos] == '\n' {
			s.pos++ // tolerate blank separator lines
			continue
		}
		next, err := s.walkRow(n)
		if err != nil {
			return nil, err
		}
		if s.syn != nil {
			s.syn.Advance(1)
		}
		if s.rec != nil {
			s.rec.AppendRow(int64(s.pos), s.recOffs)
		}
		s.pos = next
		if s.failed {
			// A pushed-down predicate rejected the row: roll back whatever
			// the walk appended before the check failed. The structural
			// index recording above is complete regardless.
			s.failed = false
			for i := 0; i < s.nneed; i++ {
				s.out.Cols[i].Truncate(n)
			}
			s.rowsPruned++
			s.row++
			continue
		}
		if s.emitRID {
			s.out.Cols[s.ridSlot].AppendInt64(s.row)
		}
		s.row++
		n++
	}
	if s.pos >= len(data) && s.rec != nil && !s.committed {
		s.rec.Commit()
		s.committed = true
	}
	if n == 0 {
		return nil, nil
	}
	return s.out, nil
}

// Close implements exec.Operator.
func (s *JSONScan) Close() error { return nil }

var _ exec.Operator = (*JSONScan)(nil)

// NewJSONMapScan generates a structural-index access path: a RowScan over the
// JSON fetch, which resolves once, per path, whether recorded value offsets
// exist (jump straight to the value) or the row-start offsets must be used
// (find the value from the row start). It drops the offsets it records of
// untracked paths; NewJSONMapScanPush hands them out.
func NewJSONMapScan(data []byte, t *catalog.Table, need []int, idx *jsonidx.Index,
	emitRID bool, batchSize int) (*RowScan, error) {
	s, _, err := NewJSONMapScanPush(data, t, need, idx, need, emitRID, batchSize, Pushdown{})
	return s, err
}

// NewJSONMapScanPush generates a structural-index access path with pushdown
// (see RowScan), and returns with it the recording of the paths of the
// columns of need that record lists and idx does not track (nil when there
// are none); the other untracked paths are read and not recorded. Predicate
// columns and columns being recorded are read on every row, the others only
// for rows opts.Preds select, so the recording of a scan that read every row
// of its range covers that range: once the query succeeded, the caller may
// publish it (jsonidx.Recorder.Publish), alone for the whole table or linked
// with the recordings of the other ranges (SetRowRange). idx itself is never
// written.
// opts.Skip applies only when nothing is recorded — skipped rows could never
// be recorded — and is dropped otherwise. opts.Syn is ignored.
func NewJSONMapScanPush(data []byte, t *catalog.Table, need []int, idx *jsonidx.Index,
	record []int, emitRID bool, batchSize int, opts Pushdown) (*RowScan, *jsonidx.Recorder, error) {
	if t.Format != catalog.JSON {
		return nil, nil, fmt.Errorf("jit: json scan got format %s", t.Format)
	}
	if idx == nil || idx.NRows() == 0 {
		return nil, nil, fmt.Errorf("jit: json map scan requires a populated structural index")
	}
	// Declare the untracked paths to record up front so one recorder stages
	// them all (a column out of range fails in newRowScan).
	var newPaths []string
	var dense []int
	for _, c := range need {
		if c >= 0 && c < len(t.Schema) && slices.Contains(record, c) && !idx.Tracked(t.Schema[c].Name) {
			newPaths, dense = append(newPaths, t.Schema[c].Name), append(dense, c)
		}
	}
	var adaptive *jsonidx.Recorder
	if len(newPaths) > 0 {
		adaptive = idx.Record(newPaths)
		opts.Skip = nil
	}
	opts.Syn = nil
	s, err := newRowScan(t, need, idx.NRows(), emitRID, batchSize, opts, dense, func(cols []int) (exec.Fetch, error) {
		return jsonFetch(data, t, cols, idx, adaptive)
	})
	if err != nil {
		return nil, nil, err
	}
	return s, adaptive, nil
}

// JSONLateFetch generates the late fetch of cols of a JSONL file: for each
// row id it jumps via the structural index — straight to the value for
// tracked paths, to the row start and through a jsonfile.Skeleton for
// untracked ones.
func JSONLateFetch(data []byte, t *catalog.Table, cols []int, idx *jsonidx.Index) (exec.Fetch, error) {
	return jsonFetch(data, t, cols, idx, nil)
}

// jsonFetch is JSONLateFetch that also records, into rec (when non-nil), the
// offset of every untracked path rec stages, for each row id it reads.
func jsonFetch(data []byte, t *catalog.Table, cols []int, idx *jsonidx.Index, rec *jsonidx.Recorder) (exec.Fetch, error) {
	if t.Format != catalog.JSON {
		return nil, fmt.Errorf("jit: json late scan got format %s", t.Format)
	}
	if idx == nil || idx.NRows() == 0 {
		return nil, fmt.Errorf("jit: json late scan requires a populated structural index")
	}
	type lateCol struct {
		path      string
		positions *offsets.Column    // the path's value offsets, or the row starts
		skel      *jsonfile.Skeleton // non-nil: untracked, found from the row start
		rec       int                // the untracked path's slot in rec, or -1
		isInt     bool
	}
	lcs := make([]lateCol, len(cols))
	for i, c := range cols {
		if err := columnInRange(t, c); err != nil {
			return nil, err
		}
		col := t.Schema[c]
		if col.Type != vector.Int64 && col.Type != vector.Float64 {
			return nil, fmt.Errorf("jit: unsupported JSON column type %s", col.Type)
		}
		lcs[i] = lateCol{path: col.Name, positions: idx.Positions(col.Name), rec: -1, isInt: col.Type == vector.Int64}
		if lcs[i].positions == nil {
			lcs[i].positions = idx.RowStarts()
			lcs[i].skel = jsonfile.NewSkeleton(jsonfile.SplitPath(col.Name), maxSkeletonMisses)
			if rec != nil {
				lcs[i].rec = slices.Index(rec.Paths(), col.Name)
			}
		}
	}
	nrows := idx.NRows()
	var b lateBatch
	return func(rids []int64, outs []*vector.Vector) error {
		for i := range lcs {
			lc, out := &lcs[i], outs[i]
			if err := b.locate(data, lc.positions, nrows, rids); err != nil {
				return err
			}
			for j, p := range b.pos {
				pos, c := b.start(data, j)
				if lc.skel != nil {
					if pos = lc.skel.Find(data, pos); pos < 0 {
						return fmt.Errorf("jit json: row %d: path %q absent", rids[j], lc.path)
					}
					if lc.rec >= 0 {
						rec.AppendPathOffset(lc.rec, p, int64(pos))
					}
					c = byteAt(data, pos)
				}
				var err error
				if lc.isInt {
					var v int64
					if v, _, err = jsonfile.Int64At(data, pos, c); err == nil {
						out.Int64s = append(out.Int64s, v)
					}
				} else {
					var v float64
					if v, _, err = jsonfile.Float64At(data, pos, c); err == nil {
						out.Float64s = append(out.Float64s, v)
					}
				}
				if err != nil {
					return fmt.Errorf("jit json: row %d path %q: %w", rids[j], lc.path, err)
				}
			}
		}
		return nil
	}, nil
}
