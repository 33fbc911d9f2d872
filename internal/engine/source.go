package engine

import (
	"fmt"
	"slices"
	"sync/atomic"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/faults"
	"rawdb/internal/insitu"
	"rawdb/internal/jit"
	"rawdb/internal/jsonidx"
	"rawdb/internal/posmap"
	"rawdb/internal/storage/binfile"
	"rawdb/internal/storage/csvfile"
	"rawdb/internal/storage/jsonfile"
	"rawdb/internal/storage/rawfile"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/synopsis"
	"rawdb/internal/vault"
)

// This file is the paper's input plug-in: everything the engine needs to
// know about one raw file format, answered once per format behind one
// contract. A table's plug-in is resolved at registration and lives on its
// tableState; the planner (plan.go, parallel.go) never branches on a format,
// it asks the plug-in and runs one flow (rawScans) over its answers.

// source is the input plug-in contract. Implementations own the table's raw
// image (caller-owned, or mapped from tab.Path); the positional structure
// scans build over it (positional map, structural index) stays in the
// tableState's pos slot, where the cache budget and the vault reach it, and
// comes in as the plan's positions snapshot.
type source interface {
	// load maps the raw image from tab.Path unless one is already resident.
	load(tab *catalog.Table) error
	// stat reports the resident raw bytes (0: none) and the row count where
	// the format states it (-1: only a scan can tell).
	stat() (bytes, rows int64)
	// image returns the raw image when it is one byte slice registered or
	// mapped as such, else nil.
	image() []byte
	// rawFile returns the image load read from tab.Path, which plans hold
	// while they read it (nil: the bytes were handed over).
	rawFile() *rawfile.Image
	// release drops a mapped image, unmapped once its last reader is done;
	// the next load maps the file again. A handed-over image stays.
	release()
	// access says how cols would be read right now under kind: by row number
	// where the positional structure allows it, record by record otherwise.
	// nil cols asks whether rows are addressable at all (addressable). It
	// fails with a noReaderError when kind has no reader for the format.
	access(tab *catalog.Table, pos positions, cols []int, kind scanKind) (access, error)
	// split cuts the table into spans in file order — at most n row ranges
	// for positional modes, record-aligned byte ranges for jit.Sequential (n,
	// or more where n would make them longer than coldMorselBytes) — that are
	// disjoint and cover it exactly.
	split(pos positions, mode jit.Mode, n int) []span
	// scan builds the operator reading req.cols over req.span, and the
	// private fragment of the positional structure the pass fills on the side
	// (nil when it fills none): a record-by-record pass's new structure, or a
	// whole-table pass's recording of what the structure does not track yet.
	scan(tab *catalog.Table, pos positions, req scanReq) (exec.Operator, fragment, error)
	// late returns the table's own late reader of cols (ascending): the fetch
	// by row id an exec.LateScan runs, alone or completing a partial shred.
	late(tab *catalog.Table, pos positions, cols []int) (exec.Fetch, error)
	// publish installs on st the positional structure the fragments make up
	// (frags[i] was filled over spans[i], in file order) and returns its
	// footprint. A lone fragment that starts the file is adopted as it is;
	// only a real merge copies. A recording makes a new structure that shares
	// the recorded-over one's unchanged parts; nothing installed is written.
	publish(st *tableState, frags []fragment, spans []span) (bytes int64, err error)
}

// scanKind selects the family of scan operators reading the raw bytes.
type scanKind uint8

const (
	scanGenerated scanKind = iota // JIT access path specialised to file and query
	scanGeneric                   // NoDB-style general-purpose in-situ scan
	scanExternal                  // external table: re-parse per query, keep nothing
)

// String is the kind's prefix in access-path labels.
func (k scanKind) String() string {
	return [...]string{"jit", "insitu", "external"}[k]
}

// span is one scan unit of a table: rows [lo, hi) under a positional mode,
// bytes [lo, hi) of the raw image under jit.Sequential.
type span struct{ lo, hi int64 }

// wholeTable is the one-part plan's one span: the scan is built unranged over
// the whole image, and may emit row ids.
var wholeTable = span{0, -1}

// positions is a plan's snapshot of a table's cached structures: the
// positional structure (one of pm, jidx) and the zone maps. The cache budget
// may evict the shared pointers at any moment; every step of a plan reads the
// same ones.
type positions struct {
	pm   *posmap.Map
	jidx *jsonidx.Index
	syn  *synopsis.Synopsis
}

func (st *tableState) positions() positions {
	pos := st.pos.get()
	pm, _ := pos.(*posmap.Map)
	jidx, _ := pos.(*jsonidx.Index)
	syn, _ := st.syn.get().(*synopsis.Synopsis)
	return positions{pm, jidx, syn}
}

// bind makes tab the table st serves and names its slots after it. The
// positional slot takes the kind of structure the format's plug-in builds —
// a positional map for CSV, a structural index for JSON, written to the vault
// after the synopsis — and stays unbound where the format addresses rows
// itself.
func (st *tableState) bind(tab *catalog.Table) {
	st.tab = tab
	st.saves = [2]*slot{&st.pos, &st.syn}
	switch tab.Format {
	case catalog.CSV:
		st.pos.bind(vault.KindPosMap, tab.Name)
	case catalog.JSON:
		st.pos.bind(vault.KindJSONIdx, tab.Name)
		st.saves = [2]*slot{&st.syn, &st.pos}
	}
	st.syn.bind(vault.KindSynopsis, tab.Name)
}

// access is a plug-in's description of one way to read columns. What differs
// between formats is stated here as data, so the planner has one flow.
type access struct {
	// mode: jit.Sequential walks a text image record by record (and fills a
	// fragment of the positional structure); jit.ViaMap reads by row number
	// through that structure; jit.Direct formats address rows themselves.
	mode jit.Mode
	// label names the path in Stats.AccessPaths and span names.
	label string
	// structure is the format's positional structure ("posmap", "jsonidx",
	// "" for none): served under ViaMap, built under Sequential.
	structure string
	// zoneSkip: the scans take a zone map's exclusion test, and spans it
	// excludes may be dropped before dispatch.
	zoneSkip bool
	// recording: the positional pass records structure it does not track yet
	// as it goes. A whole-table scan drops the exclusion test itself while it
	// records; no span of a split one may be dropped, so those get none.
	recording bool
	// buildsSyn: this pass parses every value of the scanned columns, so a
	// synopsis builder may observe it.
	buildsSyn bool
	// estRows estimates the rows a cold text pass reads over a span from the
	// span's first records, for one-time allocation (nil: no estimate). Asked
	// only where no row count is known.
	estRows func(sp span) int64
}

// scanReq is one scan a plug-in is asked to build.
type scanReq struct {
	kind    scanKind
	mode    jit.Mode
	span    span
	cols    []int
	emitRID bool
	push    jit.Pushdown
	batch   int
	// track makes a record-by-record pass fill a fragment; the DBMS loader
	// keeps nothing and clears it.
	track bool
	// tee: the planner captures cols whole as shreds over this scan, so a
	// record-by-record pass need not record their offsets (later queries read
	// the shreds; one that reads a path raw again records it).
	tee bool
	// pooled are the columns of cols the shred pool holds whole, which a cut
	// scan rereads only alongside columns it does not: no pass records them.
	pooled []int
	// rowHint sizes that fragment once, for the span's rows (0: grow by
	// append).
	rowHint int
}

// fragment is the private piece of a positional structure one scan fills (a
// *posmap.Map, a *jsonidx.Index), or a bare row counter.
type fragment interface{ NRows() int64 }

// scanRows makes an external scan's row counter a fragment, so the rows it
// visited are learned like any other cold pass's.
type scanRows struct{ sc *insitu.ExternalScan }

func (s scanRows) NRows() int64 { return s.sc.Rows() }

// newSource resolves the plug-in of a raw format. data is the in-memory image
// for tables registered from memory, nil for path-backed ones (non-nil marks
// the image present, however short); mapped counts the bytes mapped. Memory
// tables and dataset parents have no raw file of their own and no plug-in.
// The image is not parsed here: load does that, as for a mapped one.
func newSource(format catalog.Format, policy posmap.Policy, data []byte, mapped *atomic.Int64) source {
	im := rawImage{data: data, mapped: mapped}
	switch format {
	case catalog.CSV:
		return &csvSource{im, policy}
	case catalog.JSON:
		return &jsonSource{im}
	case catalog.Binary:
		return &binSource{rawImage: im}
	case catalog.Root:
		return &rootSource{rawImage: im}
	}
	return nil
}

// noReaderError is access's refusal: the scan kind has no reader for the
// table's format (the external tool reads CSV only).
type noReaderError struct{ tab *catalog.Table }

func (e noReaderError) Error() string {
	return fmt.Sprintf("engine: external tables support CSV only (table %q is %s)", e.tab.Name, e.tab.Format)
}

// ranged restricts a positional scan to a span's rows; the whole table needs
// no restriction.
func ranged[S interface {
	exec.Operator
	SetRowRange(lo, hi int64) error
}](sc S, err error, sp span) (exec.Operator, fragment, error) {
	if err != nil {
		return nil, nil, err
	}
	if sp != wholeTable {
		if err := sc.SetRowRange(sp.lo, sp.hi); err != nil {
			return nil, nil, err
		}
	}
	return sc, nil, nil
}

// rowAddressed is embedded by the formats that address rows themselves: they
// have no positional structure to publish.
type rowAddressed struct{}

func (rowAddressed) publish(*tableState, []fragment, []span) (int64, error) { return 0, nil }

// rawImage is a raw image, the whole file as one slice.
type rawImage struct {
	data    []byte
	mapping *rawfile.Image
	mapped  *atomic.Int64
}

// loadFile maps path, through fault seam site, unless an image is resident.
func (im *rawImage) loadFile(path, site string) error {
	if im.data != nil {
		return nil
	}
	f, err := rawfile.Map(path, site, im.mapped)
	if err == nil {
		im.mapping, im.data = f, f.Data
	}
	return err
}

func (im *rawImage) image() []byte { return im.data }

func (im *rawImage) rawFile() *rawfile.Image { return im.mapping }

func (im *rawImage) release() {
	if im.mapping != nil {
		im.mapping.Release()
		im.mapping, im.data = nil, nil
	}
}

// bytes returns the image bytes a sequential scan over sp reads.
func (im *rawImage) bytes(sp span) []byte {
	if sp == wholeTable {
		return im.data
	}
	return im.data[sp.lo:sp.hi]
}

// estRows estimates the records in sp — both text formats hold one per line —
// from the span's length and the mean length of its first 64 lines, plus 2 %.
func (im *rawImage) estRows(sp span) int64 { return csvfile.EstimateRows(im.bytes(sp)) }

// coldMorselBytes bounds a byte-range morsel of a cold text image. Two morsels
// per worker, the planner's count, level the workers only while the cores run
// at one speed; when one is slower (a busy SMT sibling, a neighbour on a
// shared host) the query ends when that core has read half of the file. With
// morsels of about 4 ms of scanning the faster worker takes more of them.
const coldMorselBytes = 2 << 20

// morsels is how many byte spans a cold scan cuts the image into: the n the
// planner asked for, or one per coldMorselBytes where that is more.
func (im *rawImage) morsels(n int) int { return max(n, len(im.data)/coldMorselBytes) }

// --- CSV ---

// pmCovers reports whether the map reaches every column of cols: a tracked
// column at or before it to parse forward from.
func pmCovers(pm *posmap.Map, cols []int) bool {
	for _, c := range cols {
		if _, ok := pm.Nearest(c); !ok {
			return false
		}
	}
	return true
}

type csvSource struct {
	rawImage
	policy posmap.Policy // which columns positional maps track
}

func (s *csvSource) load(tab *catalog.Table) error { return s.loadFile(tab.Path, faults.SiteCSVLoad) }

func (s *csvSource) stat() (int64, int64) { return int64(len(s.data)), -1 }

// access: CSV reads by row number only once a positional map reaches every
// requested column (a tracked column at or before it).
func (s *csvSource) access(tab *catalog.Table, pos positions, cols []int, kind scanKind) (access, error) {
	switch {
	case kind == scanExternal:
		return access{mode: jit.Sequential, label: "scan"}, nil
	case pos.pm != nil && pos.pm.NRows() > 0 && pmCovers(pos.pm, cols):
		return access{mode: jit.ViaMap, label: "viamap", structure: "posmap", zoneSkip: true}, nil
	}
	return access{mode: jit.Sequential, label: "seq", structure: "posmap", buildsSyn: true,
		estRows: s.estRows}, nil
}

func (s *csvSource) split(pos positions, mode jit.Mode, n int) []span {
	if mode == jit.ViaMap {
		return splitRows(pos.pm.NRows(), n)
	}
	var out []span
	for _, sp := range csvfile.Split(s.data, s.morsels(n)) {
		out = append(out, span{int64(sp.Start), int64(sp.End)})
	}
	return out
}

func (s *csvSource) scan(tab *catalog.Table, pos positions, req scanReq) (exec.Operator, fragment, error) {
	if req.kind == scanExternal {
		sc, err := insitu.NewExternalScan(s.bytes(req.span), tab, req.cols, req.batch)
		if err != nil {
			return nil, nil, err
		}
		return sc, scanRows{sc}, nil
	}
	if req.mode == jit.ViaMap {
		if req.kind == scanGeneric {
			sc, err := insitu.NewCSVScan(s.data, tab, req.cols, pos.pm, nil, false, req.batch)
			return ranged(sc, err, req.span)
		}
		sc, err := jit.NewCSVMapScanPush(s.data, tab, req.cols, pos.pm, req.emitRID, req.batch, req.push)
		return ranged(sc, err, req.span)
	}
	var pm *posmap.Map
	var frag fragment
	if req.track {
		pm = posmap.New(s.policy, len(tab.Schema))
		pm.Reserve(req.rowHint)
		frag = pm
	}
	var op exec.Operator
	var err error
	if req.kind == scanGeneric {
		op, err = insitu.NewCSVScan(s.bytes(req.span), tab, req.cols, nil, pm, false, req.batch)
	} else {
		op, err = jit.NewCSVSequentialScanPush(s.bytes(req.span), tab, req.cols, pm, req.emitRID, req.batch, req.push)
	}
	if err != nil {
		return nil, nil, err
	}
	return op, frag, nil
}

func (s *csvSource) late(tab *catalog.Table, pos positions, cols []int) (exec.Fetch, error) {
	return jit.CSVLateFetch(s.data, tab, cols, pos.pm)
}

func (s *csvSource) publish(st *tableState, frags []fragment, spans []span) (int64, error) {
	pm := frags[0].(*posmap.Map)
	if len(frags) == 1 && spans[0].lo == 0 {
		pm.Clip()
	} else {
		pm = posmap.New(s.policy, len(st.tab.Schema))
		for i, f := range frags {
			if err := pm.Merge(f.(*posmap.Map), spans[i].lo); err != nil {
				return 0, err
			}
		}
	}
	st.pos.set(pm)
	return pm.MemoryFootprint(), nil
}

// --- JSON ---

type jsonSource struct{ rawImage }

func (s *jsonSource) load(tab *catalog.Table) error { return s.loadFile(tab.Path, faults.SiteJSONLoad) }

func (s *jsonSource) stat() (int64, int64) { return int64(len(s.data)), -1 }

// access: a populated structural index reads any column by row number, and
// records the paths it does not track yet as it goes (adaptively), for the
// query to publish. Row ranges are skipped only while it has nothing left to
// record: a hole in a recording would be a hole in the index.
func (s *jsonSource) access(tab *catalog.Table, pos positions, cols []int, kind scanKind) (access, error) {
	if kind == scanExternal {
		return access{}, noReaderError{tab}
	}
	idx := pos.jidx
	if idx == nil || idx.NRows() == 0 {
		return access{mode: jit.Sequential, label: "jsonseq", structure: "jsonidx", buildsSyn: true,
			estRows: s.estRows}, nil
	}
	a := access{mode: jit.ViaMap, label: "jsonidx", structure: "jsonidx", zoneSkip: true}
	if kind == scanGeneric {
		a.label = "json"
	}
	for _, c := range cols {
		if !idx.Tracked(tab.Schema[c].Name) {
			a.recording = true
		}
	}
	return a, nil
}

func (s *jsonSource) split(pos positions, mode jit.Mode, n int) []span {
	if mode == jit.ViaMap {
		return splitRows(pos.jidx.NRows(), n)
	}
	var out []span
	for _, sp := range jsonfile.Split(s.data, s.morsels(n)) {
		out = append(out, span{int64(sp.Start), int64(sp.End)})
	}
	return out
}

// scan: JSON has no general-purpose scan of its own; the generic kind runs
// the generated paths without pushdown (they still build and consult the
// index, NoDB-style).
func (s *jsonSource) scan(tab *catalog.Table, pos positions, req scanReq) (exec.Operator, fragment, error) {
	if req.mode == jit.ViaMap {
		// The recording of untracked paths is the fragment, a row range's
		// too: publish links the ranges' recordings, which cover the file
		// together (no span of a recording plan is skipped).
		sc, rec, err := jit.NewJSONMapScanPush(s.data, tab, req.cols, pos.jidx, recorded(req), req.emitRID, req.batch, req.push)
		op, _, err := ranged(sc, err, req.span)
		var frag fragment
		if err == nil && rec != nil && req.track {
			frag = rec
		}
		return op, frag, err
	}
	var idx *jsonidx.Index
	var frag fragment
	if req.track {
		idx = jsonidx.New()
		idx.Reserve(req.rowHint)
		frag = idx
	}
	sc, err := jit.NewJSONSequentialScanPush(s.bytes(req.span), tab, req.cols, idx, recorded(req), req.emitRID, req.batch, req.push)
	if err != nil {
		return nil, nil, err
	}
	return sc, frag, nil
}

func (s *jsonSource) late(tab *catalog.Table, pos positions, cols []int) (exec.Fetch, error) {
	return jit.JSONLateFetch(s.data, tab, cols, pos.jidx)
}

// recorded are the columns whose offsets a pass records: those it reads that
// no full shred serves — none the pool holds, and on a first, record-by-record
// pass none it tees (NoDB's partial maps: record only what a later read uses).
func recorded(req scanReq) []int {
	if req.tee && req.mode == jit.Sequential {
		return nil
	}
	return slices.DeleteFunc(slices.Clone(req.cols), func(c int) bool { return slices.Contains(req.pooled, c) })
}

func (s *jsonSource) publish(st *tableState, frags []fragment, spans []span) (int64, error) {
	if rec, ok := frags[0].(*jsonidx.Recorder); ok {
		rest := make([]*jsonidx.Recorder, len(frags)-1)
		for i, f := range frags[1:] {
			rest[i] = f.(*jsonidx.Recorder)
		}
		idx := rec.Publish(st.positions().jidx, rest...)
		st.pos.set(idx)
		return idx.MemoryFootprint(), nil
	}
	idx := frags[0].(*jsonidx.Index)
	if len(frags) > 1 || spans[0].lo != 0 {
		idxs, offs := make([]*jsonidx.Index, len(frags)), make([]int64, len(frags))
		for i, f := range frags {
			idxs[i], offs[i] = f.(*jsonidx.Index), spans[i].lo
		}
		idx = jsonidx.Merge(idxs, offs)
	}
	st.pos.set(idx)
	return idx.MemoryFootprint(), nil
}

// --- fixed-width binary ---

type binSource struct {
	rowAddressed
	rawImage
	r *binfile.Reader
}

func (s *binSource) load(tab *catalog.Table) error {
	if s.r != nil {
		return nil
	}
	err := s.loadFile(tab.Path, faults.SiteBinLoad)
	if err == nil {
		if s.r, err = binfile.NewReader(s.data); err != nil {
			s.release()
		}
	}
	return err
}

func (s *binSource) stat() (int64, int64) {
	if s.r == nil {
		return 0, -1
	}
	header := len(binfile.Magic) + 12 + len(s.r.Types())
	return int64(header + len(s.r.Payload())), s.r.NRows()
}

func (s *binSource) release() {
	if s.rawImage.release(); s.data == nil {
		s.r = nil
	}
}

// access: rows are addressed by arithmetic, always. With no sequential pass
// to ride on, the positional pass itself builds the synopsis (unless a zone
// map is already steering it).
func (s *binSource) access(tab *catalog.Table, _ positions, _ []int, kind scanKind) (access, error) {
	if kind == scanExternal {
		return access{}, noReaderError{tab}
	}
	return access{mode: jit.Direct, label: "bin", zoneSkip: true, buildsSyn: true}, nil
}

func (s *binSource) split(_ positions, _ jit.Mode, n int) []span {
	return splitRows(s.r.NRows(), n)
}

func (s *binSource) scan(tab *catalog.Table, _ positions, req scanReq) (exec.Operator, fragment, error) {
	if req.kind == scanGeneric {
		sc, err := insitu.NewBinScan(s.r, tab, req.cols, false, req.batch)
		return ranged(sc, err, req.span)
	}
	sc, err := jit.NewBinScanPush(s.r, tab, req.cols, req.emitRID, req.batch, req.push)
	return ranged(sc, err, req.span)
}

func (s *binSource) late(tab *catalog.Table, _ positions, cols []int) (exec.Fetch, error) {
	return jit.BinLateFetch(s.r, tab, cols)
}

// --- ROOT ---

// rootSource reads one tree (tab.Tree) of a ROOT-like file image, mapped from
// tab.Path or handed over, and parsed here. An image names no tree of its
// own, so ROOT backs no dataset partition.
type rootSource struct {
	rowAddressed
	rawImage
	tree *rootfile.Tree
}

func (s *rootSource) load(tab *catalog.Table) error {
	if s.tree != nil {
		return nil
	}
	err := s.loadFile(tab.Path, faults.SiteRootLoad)
	if err == nil {
		var f *rootfile.File
		if f, err = rootfile.Parse(s.data); err == nil {
			s.tree, err = f.Tree(tab.Tree)
		}
		if err != nil {
			s.release()
		}
	}
	return err
}

func (s *rootSource) stat() (int64, int64) {
	if s.tree == nil {
		return 0, -1
	}
	return int64(len(s.data)), s.tree.NEntries()
}

func (s *rootSource) release() {
	if s.rawImage.release(); s.data == nil {
		s.tree = nil
	}
}

// access: entries are addressed by id, always; like binary, the positional
// pass builds the synopsis itself.
func (s *rootSource) access(tab *catalog.Table, _ positions, _ []int, kind scanKind) (access, error) {
	if kind == scanExternal {
		return access{}, noReaderError{tab}
	}
	return access{mode: jit.Direct, label: "root", zoneSkip: true, buildsSyn: true}, nil
}

func (s *rootSource) split(_ positions, _ jit.Mode, n int) []span {
	return splitRows(s.tree.NEntries(), n)
}

// scan: the paper has no generic ROOT scan either; the generic kind runs the
// generated path, which the planner gives no pushdown.
func (s *rootSource) scan(tab *catalog.Table, _ positions, req scanReq) (exec.Operator, fragment, error) {
	sc, err := jit.NewRootScanPush(s.tree, tab, req.cols, req.emitRID, req.batch, req.push)
	return ranged(sc, err, req.span)
}

func (s *rootSource) late(tab *catalog.Table, _ positions, cols []int) (exec.Fetch, error) {
	return jit.RootLateFetch(s.tree, tab, cols)
}
