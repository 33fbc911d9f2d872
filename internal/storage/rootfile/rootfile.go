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
//   - a library-managed buffer pool of hot, inflated baskets, which is what
//     makes the hand-written analysis fast on warm re-runs; the batch reads
//     an engine's scans make bypass it (uncompressed baskets are read from
//     the image itself, compressed ones inflated into the reader's Inflated);
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
	// compressed baskets: reads pay a decompression cost that the buffer
	// pool amortises over entry-by-entry reads.
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
				end := min(start+w.opts.BasketEntries, n)
				payload := encodeBasket(b, start, end)
				if w.opts.Compress {
					var cb bytes.Buffer
					fw, err := flate.NewWriter(&cb, flate.BestSpeed)
					if err != nil {
						return err
					}
					if _, err := fw.Write(payload); err != nil {
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
	switch {
	case start >= end:
	case b.typ == vector.Int64:
		mn, mx := bounds(b.i64[start:end])
		return uint64(mn), uint64(mx)
	case b.typ == vector.Float64:
		mn, mx := bounds(b.f64[start:end])
		return math.Float64bits(mn), math.Float64bits(mx)
	}
	return 0, 0
}

// bounds returns the least and the greatest value of s, which is not empty,
// passing over a NaN that does not open s.
func bounds[T int64 | float64](s []T) (mn, mx T) {
	mn, mx = s[0], s[0]
	for _, v := range s[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
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

// Branch provides id-based access to one column of a tree: entry by entry
// through the file's buffer pool, as with ROOT's getEntry(), or by batches of
// ids (Int64sAt, Float64sAt), which do not touch the pool.
type Branch struct {
	file    *File
	tree    *Tree
	Name    string
	Type    vector.Type
	baskets []basket
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

// File is a parsed root-like file image plus its buffer pool.
type File struct {
	data       []byte
	compressed bool
	basketSize int
	trees      map[string]*Tree
	order      []string
	pool       *BufferPool
}

// Parse parses a file image, which the File reads from as long as it lives.
// The buffer pool starts empty ("cold").
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
	f.pool = NewBufferPool(maxInflated)
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
// cold-run simulation via Reset).
func (f *File) Pool() *BufferPool { return f.pool }

// basketFor returns the index of the basket containing entry i.
func (b *Branch) basketFor(i int64) int {
	// Baskets are fixed-size except the last, so direct division works.
	k := int(i / int64(b.file.basketSize))
	if k >= len(b.baskets) {
		k = len(b.baskets) - 1
	}
	return k
}

// first returns the index of the first entry in basket k (all but the last
// basket are full).
func (b *Branch) first(k int) int64 { return int64(k) * int64(b.file.basketSize) }

// payload returns the bytes of basket k, eight per entry: the image's own in
// an uncompressed file, else inflated: held in in, or a copy of its own where
// in is nil.
func (b *Branch) payload(k int, in *Inflated) ([]byte, error) {
	meta := b.baskets[k]
	raw, size := b.file.data[meta.offset:meta.offset+int64(meta.clen)], int(meta.entries)*8
	if b.file.compressed {
		if in == nil {
			return new(Inflated).inflate(nil, raw, size)
		}
		return in.get(k, raw, size)
	}
	if len(raw) != size {
		return nil, fmt.Errorf("%w: basket payload %d bytes, want %d", ErrCorrupt, len(raw), size)
	}
	return raw, nil
}

// load returns the bytes of basket k, via the buffer pool.
func (b *Branch) load(k int) ([]byte, error) {
	if raw := b.file.pool.Get(b, k); raw != nil {
		return raw, nil
	}
	raw, err := b.payload(k, nil)
	if err == nil {
		b.file.pool.Put(b, k, raw)
	}
	return raw, err
}

// appendValues appends the little-endian values of src to dst, each made
// from its bits by conv.
func appendValues[T int64 | float64](dst []T, src []byte, conv func(uint64) T) []T {
	if vals, ok := inPlace[T](src); ok {
		return append(dst, vals...)
	}
	n := len(dst)
	dst = slices.Grow(dst, len(src)/8)[:n+len(src)/8]
	for i := range dst[n:] {
		dst[n+i] = conv(binary.LittleEndian.Uint64(src[8*i:]))
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
	v, err := b.entryAt(i, vector.Int64)
	return int64(v), err
}

// Float64At returns entry i of a Float64 branch.
func (b *Branch) Float64At(i int64) (float64, error) {
	v, err := b.entryAt(i, vector.Float64)
	return math.Float64frombits(v), err
}

// entryAt returns the bits of entry i of a branch of type typ, read through
// the buffer pool.
func (b *Branch) entryAt(i int64, typ vector.Type) (uint64, error) {
	if b.Type != typ {
		return 0, fmt.Errorf("rootfile: branch %q is %s, read as %s", b.Name, b.Type, typ)
	}
	k := b.basketFor(i)
	raw, err := b.load(k)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(raw[8*(i-b.first(k)):]), nil
}

// maxInflated bounds the baskets one Inflated holds: as many as the file's
// buffer pool holds for all branches together.
const maxInflated = 256

// Inflated holds the compressed baskets of one branch that one reader's
// gathers (Int64sAt, Float64sAt) inflated. While the baskets the reader
// reaches only ascend (a scan), it holds just the last one. From the first
// step back to a lower basket on (a fetch above a join sends ids in the
// probe's order), it keeps every basket it inflates, up to maxInflated, past
// which it drops the one reached least recently. So while a reader reaches at
// most maxInflated baskets it inflates each at most twice, and once unless it
// passed the basket before its first step back. The bytes die with the
// Inflated; the file's buffer pool never sees them. The zero value is ready to
// use; one reader's gathers run one at a time.
type Inflated struct {
	at   map[int]int // the index in held of each basket held
	held []heldBasket
	last int  // the basket reached last
	back bool // the reader went back to a lower basket
	tick int64
	fr   io.ReadCloser
}

// heldBasket is one basket an Inflated holds, or a free buffer (k < 0).
type heldBasket struct {
	k    int
	used int64 // the tick the basket was last reached at
	buf  []byte
}

// get returns basket k, whose compressed bytes are raw, inflated to size
// bytes: the copy in holds, or a new one.
func (in *Inflated) get(k int, raw []byte, size int) ([]byte, error) {
	if in.at == nil {
		in.at = map[int]int{}
	}
	in.tick++
	prev := in.last
	in.last = k
	if i, ok := in.at[k]; ok {
		in.held[i].used = in.tick
		return in.held[i].buf, nil
	}
	i := len(in.held)
	switch {
	case !in.back && i > 0 && k > prev:
		i = 0 // a scan moves on: reuse the one basket it holds
	case i < maxInflated:
		in.back = i > 0
		in.held = append(in.held, heldBasket{k: -1})
	default:
		i = 0
		for j, h := range in.held {
			if h.used < in.held[i].used {
				i = j
			}
		}
	}
	h := &in.held[i]
	delete(in.at, h.k)
	h.k = -1
	buf, err := in.inflate(h.buf, raw, size)
	if err != nil {
		return nil, err
	}
	*h = heldBasket{k: k, used: in.tick, buf: buf}
	in.at[k] = i
	return buf, nil
}

// inflate decompresses raw, a basket's compressed bytes, into buf grown to
// size bytes, through the reader's flate reader.
func (in *Inflated) inflate(buf, raw []byte, size int) ([]byte, error) {
	if in.fr == nil {
		in.fr = flate.NewReader(bytes.NewReader(raw))
	} else if err := in.fr.(flate.Resetter).Reset(bytes.NewReader(raw), nil); err != nil {
		return nil, fmt.Errorf("%w: basket decompress: %v", ErrCorrupt, err)
	}
	buf = slices.Grow(buf[:0], size)[:size]
	if n, err := io.ReadFull(in.fr, buf); err != nil {
		return nil, fmt.Errorf("%w: basket payload %d bytes, want %d (%v)", ErrCorrupt, n, size, err)
	}
	// One byte past the payload's size is enough to tell it is wrong.
	if n, err := io.ReadFull(in.fr, make([]byte, 1)); n > 0 || err != io.EOF {
		return nil, fmt.Errorf("%w: basket payload longer than %d bytes (%v)", ErrCorrupt, size, err)
	}
	return buf, nil
}

// Int64sAt appends the entries ids of an Int64 branch to dst, in the order
// given, and returns the extended slice: the batch form of Int64At that JIT
// scans call. Each basket is reached once per run of ids that stay in it, and
// a run of consecutive ids is copied in one go, from the image itself in an
// uncompressed file, else from the basket held in in or inflated into it.
// An id outside the tree is an error.
func (b *Branch) Int64sAt(dst []int64, ids []int64, in *Inflated) ([]int64, error) {
	if b.Type != vector.Int64 {
		return dst, fmt.Errorf("rootfile: branch %q is %s, read as int64", b.Name, b.Type)
	}
	return gather(b, in, dst, ids, func(v uint64) int64 { return int64(v) })
}

// Float64sAt appends the entries ids of a Float64 branch to dst.
func (b *Branch) Float64sAt(dst []float64, ids []int64, in *Inflated) ([]float64, error) {
	if b.Type != vector.Float64 {
		return dst, fmt.Errorf("rootfile: branch %q is %s, read as float64", b.Name, b.Type)
	}
	return gather(b, in, dst, ids, math.Float64frombits)
}

// gather is Int64sAt and Float64sAt, each value made from its bits by conv.
func gather[T int64 | float64](b *Branch, in *Inflated, dst []T, ids []int64, conv func(uint64) T) ([]T, error) {
	var raw []byte // the bytes of the basket holding [first, end)
	var first, end int64
	for i := 0; i < len(ids); {
		id := ids[i]
		if id < first || id >= end {
			if id < 0 || id >= b.tree.nentries {
				return dst, fmt.Errorf("rootfile: entry %d outside branch %q of %d entries", id, b.Name, b.tree.nentries)
			}
			k := b.basketFor(id)
			first, end = b.first(k), b.first(k)+int64(b.baskets[k].entries)
			var err error
			if raw, err = b.payload(k, in); err != nil {
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
		dst = appendValues(dst, raw[8*lo:8*hi], conv)
		i = j
	}
	return dst, nil
}
