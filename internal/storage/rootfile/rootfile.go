// Package rootfile implements a simulated ROOT-like scientific file format.
//
// The paper's real-world use case queries ATLAS data stored in CERN's ROOT
// format, accessed through the ROOT I/O library rather than by byte-level
// parsing. We cannot ship ROOT, so this package reproduces the properties
// RAW depends on:
//
//   - a binary, columnar layout: each "tree" (table) stores each "branch"
//     (field) in fixed-size baskets of entries, optionally compressed;
//   - id-based access: any entry of any branch is addressable by its index
//     (the paper maps this to an index-based scan and pushes filtering down);
//   - a library-managed buffer pool of hot, decoded baskets, which is what
//     makes the hand-written analysis fast on warm re-runs (batch reads of
//     uncompressed baskets take the values from the image itself);
//   - files that may declare thousands of branches of which a query touches
//     a handful (RAW's catalog supports partial schemas for this reason).
//
// Nested objects (an event owning lists of muons/electrons/jets) follow the
// ROOT convention of separate trees plus first/count index branches in the
// parent tree; see internal/higgs for the schema.
package rootfile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"unsafe"

	"rawdb/internal/vector"
)

// Magic identifies the format.
const Magic = "RAWROOT\x01"

// DefaultBasketEntries is the number of entries per basket when the writer
// options leave it zero.
const DefaultBasketEntries = 4096

// ErrCorrupt reports a structurally invalid file.
var ErrCorrupt = errors.New("rootfile: corrupt file")

// ErrNotFound reports a missing tree or branch.
var ErrNotFound = errors.New("rootfile: not found")

// Options configure a Writer.
type Options struct {
	// BasketEntries is the number of entries per basket (default 4096).
	BasketEntries int
	// Compress enables per-basket DEFLATE compression, mimicking ROOT's
	// compressed baskets: cold reads pay a decompression cost that the
	// buffer pool amortises.
	Compress bool
}

// A Writer builds a file in memory tree by tree and serializes it on Close.
type Writer struct {
	w     io.Writer
	opts  Options
	trees []*TreeWriter
}

// NewWriter returns a Writer that will serialize to w on Close.
func NewWriter(w io.Writer, opts Options) *Writer {
	if opts.BasketEntries <= 0 {
		opts.BasketEntries = DefaultBasketEntries
	}
	return &Writer{w: w, opts: opts}
}

// Tree creates a new tree (table) with the given name.
func (w *Writer) Tree(name string) *TreeWriter {
	tw := &TreeWriter{name: name}
	w.trees = append(w.trees, tw)
	return tw
}

// A TreeWriter accumulates branch columns for one tree.
type TreeWriter struct {
	name     string
	branches []*BranchWriter
}

// Branch creates a branch of the given type in the tree.
func (t *TreeWriter) Branch(name string, typ vector.Type) *BranchWriter {
	bw := &BranchWriter{name: name, typ: typ}
	t.branches = append(t.branches, bw)
	return bw
}

// A BranchWriter accumulates the values of one branch.
type BranchWriter struct {
	name string
	typ  vector.Type
	i64  []int64
	f64  []float64
}

// AppendInt64 appends v; the branch must have type Int64.
func (b *BranchWriter) AppendInt64(v int64) { b.i64 = append(b.i64, v) }

// AppendFloat64 appends v; the branch must have type Float64.
func (b *BranchWriter) AppendFloat64(v float64) { b.f64 = append(b.f64, v) }

func (b *BranchWriter) len() int {
	if b.typ == vector.Int64 {
		return len(b.i64)
	}
	return len(b.f64)
}

// Close validates branch lengths and serializes the file.
func (w *Writer) Close() error {
	var body bytes.Buffer
	body.WriteString(Magic)

	type basketMeta struct {
		offset   int64
		clen     int32
		entries  int32
		min, max uint64 // value bounds, encoded per branch type
	}
	type branchMeta struct {
		name    string
		typ     vector.Type
		baskets []basketMeta
	}
	type treeMeta struct {
		name     string
		nentries int64
		branches []branchMeta
	}

	var dir []treeMeta
	for _, t := range w.trees {
		if len(t.branches) == 0 {
			return fmt.Errorf("rootfile: tree %q has no branches", t.name)
		}
		n := t.branches[0].len()
		for _, b := range t.branches {
			if b.len() != n {
				return fmt.Errorf("rootfile: tree %q: branch %q has %d entries, expected %d",
					t.name, b.name, b.len(), n)
			}
		}
		tm := treeMeta{name: t.name, nentries: int64(n)}
		for _, b := range t.branches {
			bm := branchMeta{name: b.name, typ: b.typ}
			for start := 0; start < n || (n == 0 && start == 0); start += w.opts.BasketEntries {
				end := start + w.opts.BasketEntries
				if end > n {
					end = n
				}
				raw := encodeBasket(b, start, end)
				payload := raw
				if w.opts.Compress {
					var cb bytes.Buffer
					fw, err := flate.NewWriter(&cb, flate.BestSpeed)
					if err != nil {
						return err
					}
					if _, err := fw.Write(raw); err != nil {
						return err
					}
					if err := fw.Close(); err != nil {
						return err
					}
					payload = cb.Bytes()
				}
				lo, hi := basketBounds(b, start, end)
				bm.baskets = append(bm.baskets, basketMeta{
					offset:  int64(body.Len()),
					clen:    int32(len(payload)),
					entries: int32(end - start),
					min:     lo,
					max:     hi,
				})
				body.Write(payload)
				if n == 0 {
					break
				}
			}
			tm.branches = append(tm.branches, bm)
		}
		dir = append(dir, tm)
	}

	// Directory.
	dirOffset := int64(body.Len())
	le := binary.LittleEndian
	put32 := func(v int32) { _ = binary.Write(&body, le, v) }
	put64 := func(v int64) { _ = binary.Write(&body, le, v) }
	putStr := func(s string) {
		put32(int32(len(s)))
		body.WriteString(s)
	}
	if w.opts.Compress {
		put32(1)
	} else {
		put32(0)
	}
	put32(int32(w.opts.BasketEntries))
	put32(int32(len(dir)))
	for _, tm := range dir {
		putStr(tm.name)
		put64(tm.nentries)
		put32(int32(len(tm.branches)))
		for _, bm := range tm.branches {
			putStr(bm.name)
			body.WriteByte(byte(bm.typ))
			put32(int32(len(bm.baskets)))
			for _, k := range bm.baskets {
				put64(k.offset)
				put32(k.clen)
				put32(k.entries)
				_ = binary.Write(&body, le, k.min)
				_ = binary.Write(&body, le, k.max)
			}
		}
	}
	// Trailer: directory offset.
	put64(dirOffset)

	_, err := w.w.Write(body.Bytes())
	return err
}

// basketBounds computes the zone-map entry (min/max) of one basket, encoded
// as the value's bit pattern per branch type. Mirrors the synopses scientific
// formats embed (HDF B-trees, FITS keywords). The reader skips them: they
// drop NaN, and the engine builds zone maps of its own.
func basketBounds(b *BranchWriter, start, end int) (lo, hi uint64) {
	switch b.typ {
	case vector.Int64:
		if start >= end {
			return 0, 0
		}
		mn, mx := b.i64[start], b.i64[start]
		for _, v := range b.i64[start+1 : end] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return uint64(mn), uint64(mx)
	case vector.Float64:
		if start >= end {
			return 0, 0
		}
		mn, mx := b.f64[start], b.f64[start]
		for _, v := range b.f64[start+1 : end] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return math.Float64bits(mn), math.Float64bits(mx)
	}
	return 0, 0
}

func encodeBasket(b *BranchWriter, start, end int) []byte {
	out := make([]byte, 0, (end-start)*8)
	switch b.typ {
	case vector.Int64:
		for _, v := range b.i64[start:end] {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
	case vector.Float64:
		for _, v := range b.f64[start:end] {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Reader side.

type basket struct {
	offset  int64
	clen    int32
	entries int32
}

// Branch provides id-based access to one column of a tree. All access goes
// through the file's buffer pool, as with ROOT's getEntry().
type Branch struct {
	file    *File
	tree    *Tree
	Name    string
	Type    vector.Type
	baskets []basket
	// firstEntry[k] is the global index of the first entry in basket k.
	firstEntry []int64
}

// Tree is one table in the file.
type Tree struct {
	Name     string
	nentries int64
	branches map[string]*Branch
	order    []string
}

// NEntries returns the number of entries (rows) in the tree.
func (t *Tree) NEntries() int64 { return t.nentries }

// Branch returns the named branch.
func (t *Tree) Branch(name string) (*Branch, error) {
	b, ok := t.branches[name]
	if !ok {
		return nil, fmt.Errorf("%w: branch %q in tree %q", ErrNotFound, name, t.Name)
	}
	return b, nil
}

// Branches returns the branch names in file order.
func (t *Tree) Branches() []string { return t.order }

// File is a parsed, memory-resident root-like file plus its buffer pool.
type File struct {
	data       []byte
	compressed bool
	basketSize int
	trees      map[string]*Tree
	order      []string
	pool       *BufferPool
}

// Open loads and parses path. The buffer pool starts empty ("cold").
func Open(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rootfile: open: %w", err)
	}
	return Parse(data)
}

// Parse parses an in-memory file image.
func Parse(data []byte) (*File, error) {
	if len(data) < len(Magic)+8 || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	le := binary.LittleEndian
	dirOffset := int64(le.Uint64(data[len(data)-8:]))
	if dirOffset < int64(len(Magic)) || dirOffset > int64(len(data)-8) {
		return nil, fmt.Errorf("%w: bad directory offset", ErrCorrupt)
	}
	p := int(dirOffset)
	fail := func(what string) (*File, error) {
		return nil, fmt.Errorf("%w: truncated directory (%s)", ErrCorrupt, what)
	}
	rd32 := func() (int32, bool) {
		if p+4 > len(data) {
			return 0, false
		}
		v := int32(le.Uint32(data[p:]))
		p += 4
		return v, true
	}
	rd64 := func() (int64, bool) {
		if p+8 > len(data) {
			return 0, false
		}
		v := int64(le.Uint64(data[p:]))
		p += 8
		return v, true
	}
	rdStr := func() (string, bool) {
		n, ok := rd32()
		if !ok || n < 0 || p+int(n) > len(data) {
			return "", false
		}
		s := string(data[p : p+int(n)])
		p += int(n)
		return s, true
	}

	f := &File{data: data, trees: make(map[string]*Tree)}
	cflag, ok := rd32()
	if !ok {
		return fail("compress flag")
	}
	f.compressed = cflag != 0
	bs, ok := rd32()
	if !ok || bs <= 0 {
		return fail("basket size")
	}
	f.basketSize = int(bs)
	ntrees, ok := rd32()
	if !ok || ntrees < 0 {
		return fail("tree count")
	}
	for i := int32(0); i < ntrees; i++ {
		name, ok := rdStr()
		if !ok {
			return fail("tree name")
		}
		nent, ok := rd64()
		if !ok || nent < 0 {
			return fail("entry count")
		}
		nbr, ok := rd32()
		if !ok || nbr < 0 {
			return fail("branch count")
		}
		t := &Tree{Name: name, nentries: nent, branches: make(map[string]*Branch)}
		for j := int32(0); j < nbr; j++ {
			bname, ok := rdStr()
			if !ok {
				return fail("branch name")
			}
			if p >= len(data) {
				return fail("branch type")
			}
			typ := vector.Type(data[p])
			p++
			if typ != vector.Int64 && typ != vector.Float64 {
				return nil, fmt.Errorf("%w: branch %q has unsupported type %d", ErrCorrupt, bname, typ)
			}
			nb, ok := rd32()
			if !ok || nb < 0 {
				return fail("basket count")
			}
			br := &Branch{file: f, tree: t, Name: bname, Type: typ}
			var first int64
			for k := int32(0); k < nb; k++ {
				off, ok1 := rd64()
				cl, ok2 := rd32()
				ne, ok3 := rd32()
				_, ok4 := rd64() // the writer's basket bounds: readers
				_, ok5 := rd64() // build zone maps of their own
				if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
					return fail("basket meta")
				}
				if off < 0 || cl < 0 || off > int64(len(data))-int64(cl) {
					return nil, fmt.Errorf("%w: basket out of bounds", ErrCorrupt)
				}
				// Only the last basket may be short: entries are found by
				// division.
				if ne < 0 || ne > bs || ne < bs && k < nb-1 {
					return nil, fmt.Errorf("%w: basket %d of branch %q holds %d entries (basket size %d)",
						ErrCorrupt, k, bname, ne, bs)
				}
				br.baskets = append(br.baskets, basket{offset: off, clen: cl, entries: ne})
				br.firstEntry = append(br.firstEntry, first)
				first += int64(ne)
			}
			if first != nent {
				return nil, fmt.Errorf("%w: branch %q holds %d entries, tree declares %d",
					ErrCorrupt, bname, first, nent)
			}
			t.branches[bname] = br
			t.order = append(t.order, bname)
		}
		f.trees[name] = t
		f.order = append(f.order, name)
	}
	f.pool = NewBufferPool(256)
	return f, nil
}

// Tree returns the named tree.
func (f *File) Tree(name string) (*Tree, error) {
	t, ok := f.trees[name]
	if !ok {
		return nil, fmt.Errorf("%w: tree %q", ErrNotFound, name)
	}
	return t, nil
}

// Trees returns the tree names in file order.
func (f *File) Trees() []string { return f.order }

// Pool returns the file's buffer pool (exposed for statistics and for
// cold-run simulation via DropCaches).
func (f *File) Pool() *BufferPool { return f.pool }

// DropCaches empties the buffer pool, simulating a cold start.
func (f *File) DropCaches() { f.pool.Reset() }

// basketFor returns the index of the basket containing entry i.
func (b *Branch) basketFor(i int64) int {
	// Baskets are fixed-size except the last, so direct division works.
	k := int(i / int64(b.file.basketSize))
	if k >= len(b.baskets) {
		k = len(b.baskets) - 1
	}
	return k
}

// payload returns the bytes of basket k, eight per entry: the image's own
// in an uncompressed file, else inflated.
func (b *Branch) payload(k int) ([]byte, error) {
	meta := b.baskets[k]
	raw := b.file.data[meta.offset : meta.offset+int64(meta.clen)]
	if b.file.compressed {
		// One byte past the payload's size is enough to tell it is wrong.
		fr := flate.NewReader(bytes.NewReader(raw))
		dec, err := io.ReadAll(io.LimitReader(fr, int64(meta.entries)*8+1))
		if err != nil {
			return nil, fmt.Errorf("%w: basket decompress: %v", ErrCorrupt, err)
		}
		raw = dec
	}
	if len(raw) != int(meta.entries)*8 {
		return nil, fmt.Errorf("%w: basket payload %d bytes, want %d", ErrCorrupt, len(raw), meta.entries*8)
	}
	return raw, nil
}

// load returns the decoded basket k, via the buffer pool.
func (b *Branch) load(k int) (*DecodedBasket, error) {
	if db := b.file.pool.Get(b, k); db != nil {
		return db, nil
	}
	raw, err := b.payload(k)
	if err != nil {
		return nil, err
	}
	db := &DecodedBasket{}
	if b.Type == vector.Int64 {
		db.Int64s = appendInt64s(nil, raw)
	} else {
		db.Float64s = appendFloat64s(nil, raw)
	}
	b.file.pool.Put(b, k, db)
	return db, nil
}

// appendInt64s appends the little-endian values of src to dst.
func appendInt64s(dst []int64, src []byte) []int64 {
	if vals, ok := inPlace[int64](src); ok {
		return append(dst, vals...)
	}
	n := len(dst)
	dst = slices.Grow(dst, len(src)/8)[:n+len(src)/8]
	for i := range dst[n:] {
		dst[n+i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dst
}

// appendFloat64s is the float64 twin of appendInt64s.
func appendFloat64s(dst []float64, src []byte) []float64 {
	if vals, ok := inPlace[float64](src); ok {
		return append(dst, vals...)
	}
	n := len(dst)
	dst = slices.Grow(dst, len(src)/8)[:n+len(src)/8]
	for i := range dst[n:] {
		dst[n+i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dst
}

// littleEndian: the machine stores 64-bit values as the format does.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// inPlace views src as the values it stores where the machine reads them as
// they are: on a little-endian machine, from an 8-aligned start (a mapped
// image's uncompressed baskets are). Copying the view costs a move; decoding
// value by value costs about fifteen times as much.
func inPlace[T int64 | float64](src []byte) ([]T, bool) {
	p := unsafe.SliceData(src)
	if !littleEndian || len(src) < 8 || uintptr(unsafe.Pointer(p))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(unsafe.Pointer(p)), len(src)/8), true
}

// Int64At returns entry i of an Int64 branch. This is the getEntry()-style
// id-based access the paper's generated code calls into.
func (b *Branch) Int64At(i int64) (int64, error) {
	k := b.basketFor(i)
	db, err := b.load(k)
	if err != nil {
		return 0, err
	}
	return db.Int64s[i-b.firstEntry[k]], nil
}

// Float64At returns entry i of a Float64 branch.
func (b *Branch) Float64At(i int64) (float64, error) {
	k := b.basketFor(i)
	db, err := b.load(k)
	if err != nil {
		return 0, err
	}
	return db.Float64s[i-b.firstEntry[k]], nil
}

// Int64sAt appends the entries ids of an Int64 branch to dst, in the order
// given, and returns the extended slice: the batch form of Int64At that JIT
// scans call. Each basket is reached once per run of ids that stay in it, and
// a run of consecutive ids is copied in one go: from the image itself in an
// uncompressed file, which the buffer pool then never holds, else from the
// pooled decoded basket. An id outside the tree is an error.
func (b *Branch) Int64sAt(dst []int64, ids []int64) ([]int64, error) {
	if b.Type != vector.Int64 {
		return dst, fmt.Errorf("rootfile: branch %q is %s, read as int64", b.Name, b.Type)
	}
	return gather(b, dst, ids, func(db *DecodedBasket) []int64 { return db.Int64s }, appendInt64s)
}

// Float64sAt appends the entries ids of a Float64 branch to dst.
func (b *Branch) Float64sAt(dst []float64, ids []int64) ([]float64, error) {
	if b.Type != vector.Float64 {
		return dst, fmt.Errorf("rootfile: branch %q is %s, read as float64", b.Name, b.Type)
	}
	return gather(b, dst, ids, func(db *DecodedBasket) []float64 { return db.Float64s }, appendFloat64s)
}

// gather is Int64sAt and Float64sAt over a decoded basket's values (vals)
// or a payload's bytes (decode).
func gather[T any](b *Branch, dst []T, ids []int64, vals func(*DecodedBasket) []T,
	decode func([]T, []byte) []T) ([]T, error) {
	var cur []T    // the basket's decoded entries (compressed files)
	var raw []byte // the basket's bytes in the image (uncompressed files)
	var first, end int64
	for i := 0; i < len(ids); {
		id := ids[i]
		if id < first || id >= end {
			if id < 0 || id >= b.tree.nentries {
				return dst, fmt.Errorf("rootfile: entry %d outside branch %q of %d entries", id, b.Name, b.tree.nentries)
			}
			k := b.basketFor(id)
			first, end = b.firstEntry[k], b.firstEntry[k]+int64(b.baskets[k].entries)
			var err error
			if b.file.compressed {
				var db *DecodedBasket
				if db, err = b.load(k); err == nil {
					cur = vals(db)
				}
			} else {
				raw, err = b.payload(k)
			}
			if err != nil {
				return dst, err
			}
		}
		// The run of consecutive ids from id, up to the basket's end: eight
		// ids at a time while all continue it, then one at a time.
		j, lim := i+1, i+int(min(end-id, int64(len(ids)-i)))
		for ; j+8 <= lim; j += 8 {
			d, w := id+int64(j-i), ids[j:j+8:j+8]
			if (w[0]-d)|(w[1]-d-1)|(w[2]-d-2)|(w[3]-d-3)|(w[4]-d-4)|(w[5]-d-5)|(w[6]-d-6)|(w[7]-d-7) != 0 {
				break
			}
		}
		for j < lim && ids[j] == id+int64(j-i) {
			j++
		}
		lo, hi := id-first, id-first+int64(j-i)
		if b.file.compressed {
			dst = append(dst, cur[lo:hi]...)
		} else {
			dst = decode(dst, raw[8*lo:8*hi])
		}
		i = j
	}
	return dst, nil
}
