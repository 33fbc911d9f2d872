package vault

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"rawdb/internal/dataset"
	"rawdb/internal/jsonidx"
	"rawdb/internal/offsets"
	"rawdb/internal/posmap"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

// Codec of .rawv entries, all little-endian:
//
//	magic    "RAWV"
//	version  uint16  the kind's layout version (the kinds table)
//	kind     uint8
//	fp       Size int64 | MTime int64 | Sum uint64 | Schema uint64
//	payload  kind-specific (below)
//	check    uint64  FNV-64a of every preceding byte
//
// Offsets columns (positions, row starts, path offsets, row ids, integers)
// are written in their binary form, offsets.Column.AppendBinary: chunks as
// memory holds them, which a save and a restore copy without converting a row.
//
// Payloads:
//
//	posmap   nrows int64, ntracked uint32, tracked [ntracked]uint32, then
//	         the first tracked column's positions and each other's anchored
//	         at them (ntracked columns)
//	jsonidx  npaths uint32, per path: len uint32 + name; then the row starts
//	         and each path's offsets anchored at them (1+npaths columns)
//	shreds   nshreds uint32, then per shred: col uint32, vtype uint8,
//	         full uint8, (if partial) its row ids as a column, then its
//	         values: a column for Int64, else nvals int64 + values (fixed
//	         8/1 bytes, or len-prefixed for VARCHAR)
//	synopsis nrows int64, nbounds int64, bounds [nbounds]int64
//	         (ascending, bounds[0] = 0, bounds[nbounds-1] = nrows),
//	         ncols uint32, then per column: col uint32, vtype uint8,
//	         mins [nbounds-1] + maxs [nbounds-1] (int64, or float64 bits)
//
// Decoding is defensive end to end: every length is bounds-checked against
// the remaining bytes before allocation, every offset against the raw file's
// size, and any violation returns an error (never a panic) so the engine
// cold-rebuilds — the contract FuzzVaultDecode exercises. An entry of another
// layout version is such a violation: it is rebuilt, not migrated.

const codecMagic = "RAWV"

// Kind tags the structure type of one vault entry.
type Kind uint8

// Entry kinds.
const (
	KindPosMap   Kind = 1
	KindJSONIdx  Kind = 2
	KindShreds   Kind = 3
	KindSynopsis Kind = 4
	// KindManifest is a dataset's partition manifest (see manifest.go).
	KindManifest Kind = 5
)

// kinds describes each entry kind: its label across metrics, events and
// budget keys, its file name, and the layout version its entries are written
// with and must carry. A kind's version moves alone when its layout changes,
// so that the other kinds' entries stay valid: version 2 of positional maps,
// structural indexes and shreds writes their chunks, and of manifests the
// partitions' inodes.
var kinds = [...]struct {
	label, file string
	version     uint16
}{
	KindPosMap:   {"posmap", "posmap.rawv", 2},
	KindJSONIdx:  {"jsonidx", "jsonidx.rawv", 2},
	KindShreds:   {"shred", "shreds.rawv", 2},
	KindSynopsis: {"synopsis", "synopsis.rawv", 1},
	KindManifest: {"manifest", "manifest.rawv", 2},
}

// String returns the structure label used across metrics and events.
func (k Kind) String() string {
	if int(k) < len(kinds) && kinds[k].label != "" {
		return kinds[k].label
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// decode decodes an entry of the given kind, returning the fingerprint it
// was saved under.
func decode(kind Kind, b []byte) (Fingerprint, any, error) {
	switch kind {
	case KindPosMap:
		return boxed(DecodePosMap(b))
	case KindJSONIdx:
		return boxed(DecodeJSONIdx(b))
	case KindShreds:
		return boxed(DecodeShreds(b))
	case KindSynopsis:
		return boxed(DecodeSynopsis(b))
	case KindManifest:
		return boxed(DecodeManifest(b))
	}
	return Fingerprint{}, nil, fmt.Errorf("%w: unknown kind %d", ErrCodec, kind)
}

// boxed returns a typed decoder's results with the structure as an any.
func boxed[T any](fp Fingerprint, x T, err error) (Fingerprint, any, error) { return fp, x, err }

// Encode serialises any structure the vault keeps, under its own kind: a
// *posmap.Map, *jsonidx.Index, []TableShred, *synopsis.Synopsis or
// *dataset.Manifest.
func Encode(fp Fingerprint, x any) []byte {
	switch x := x.(type) {
	case *posmap.Map:
		return EncodePosMap(fp, x)
	case *jsonidx.Index:
		return EncodeJSONIdx(fp, x)
	case []TableShred:
		return EncodeShreds(fp, x)
	case *synopsis.Synopsis:
		return EncodeSynopsis(fp, x)
	case *dataset.Manifest:
		return EncodeManifest(fp, x)
	}
	panic(fmt.Sprintf("vault: no entry kind for %T", x))
}

// ErrCodec reports an undecodable (truncated, corrupted, or
// version-mismatched) vault entry. Callers treat it as "entry absent".
var ErrCodec = errors.New("vault: bad entry")

// TableShred is the serialised form of one cached column shred: its column
// index, its ascending row ids (nil: the full column) and its values, Ints
// for an Int64 column, else Vec. The columns are a pooled shred's own, or
// sealed ones a decode made; EncodeShreds also takes an Int64 column's values
// as a flat Vec, which it chunks. DecodeShreds always returns Ints.
type TableShred struct {
	Col  int
	Rows *offsets.Column
	Ints *offsets.Column
	Vec  *vector.Vector
}

// Type returns the type of the shred's values.
func (s TableShred) Type() vector.Type {
	if s.Ints != nil {
		return vector.Int64
	}
	return s.Vec.Type
}

// Len returns the number of rows the shred holds.
func (s TableShred) Len() int64 {
	if s.Ints != nil {
		return s.Ints.Len()
	}
	return int64(s.Vec.Len())
}

// --- encoding ---

func appendHeader(b []byte, kind Kind, fp Fingerprint) []byte {
	b = append(b, codecMagic...)
	b = binary.LittleEndian.AppendUint16(b, kinds[kind].version)
	b = append(b, byte(kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(fp.Size))
	b = binary.LittleEndian.AppendUint64(b, uint64(fp.MTime))
	b = binary.LittleEndian.AppendUint64(b, fp.Sum)
	b = binary.LittleEndian.AppendUint64(b, fp.Schema)
	return b
}

func appendCheck(b []byte) []byte {
	h := fnv.New64a()
	h.Write(b)
	return binary.LittleEndian.AppendUint64(b, h.Sum64())
}

func appendI64s(b []byte, vs []int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func appendF64s(b []byte, vs []float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// EncodePosMap serialises a positional map.
func EncodePosMap(fp Fingerprint, pm *posmap.Map) []byte {
	tracked := pm.TrackedColumns()
	b := appendHeader(nil, KindPosMap, fp)
	b = binary.LittleEndian.AppendUint64(b, uint64(pm.NRows()))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(tracked)))
	for _, c := range tracked {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	for _, c := range tracked {
		b = pm.Positions(c).AppendBinary(b)
	}
	return appendCheck(b)
}

// EncodeJSONIdx serialises a structural index (row starts plus every fully
// recorded path).
func EncodeJSONIdx(fp Fingerprint, x *jsonidx.Index) []byte {
	// Only complete recordings serialise (defensively); Peek counts no seek.
	var full []string
	for _, p := range x.TrackedPaths() {
		if x.Peek(p).Len() == x.NRows() {
			full = append(full, p)
		}
	}
	b := appendHeader(nil, KindJSONIdx, fp)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(full)))
	for _, p := range full {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	b = x.RowStarts().AppendBinary(b)
	for _, p := range full {
		b = x.Peek(p).AppendBinary(b)
	}
	return appendCheck(b)
}

// EncodeShreds serialises the cached shreds of one table.
func EncodeShreds(fp Fingerprint, shreds []TableShred) []byte {
	b := appendHeader(nil, KindShreds, fp)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(shreds)))
	for _, s := range shreds {
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Col))
		b = append(b, byte(s.Type()))
		if s.Rows == nil {
			b = append(b, 1)
		} else {
			b = s.Rows.AppendBinary(append(b, 0))
		}
		if ints := s.Ints; ints != nil || s.Vec.Type == vector.Int64 {
			if ints == nil {
				ints = offsets.New(nil)
				ints.AppendAll(s.Vec.Int64s)
				ints.Clip()
			}
			b = ints.AppendBinary(b)
			continue
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Vec.Len()))
		switch s.Vec.Type {
		case vector.Float64:
			b = appendF64s(b, s.Vec.Float64s)
		case vector.Bool:
			for _, v := range s.Vec.Bools {
				if v {
					b = append(b, 1)
				} else {
					b = append(b, 0)
				}
			}
		case vector.Bytes:
			for _, v := range s.Vec.Bytess {
				b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
				b = append(b, v...)
			}
		}
	}
	return appendCheck(b)
}

// EncodeSynopsis serialises a zone-map synopsis.
func EncodeSynopsis(fp Fingerprint, s *synopsis.Synopsis) []byte {
	b := appendHeader(nil, KindSynopsis, fp)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.NRows()))
	bounds := s.Bounds()
	b = binary.LittleEndian.AppendUint64(b, uint64(len(bounds)))
	b = appendI64s(b, bounds)
	cols := s.Columns()
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cols)))
	for _, c := range cols {
		b = binary.LittleEndian.AppendUint32(b, uint32(c.Col))
		b = append(b, byte(c.Type))
		// A column holds the int64 bounds or the float64 ones, never both.
		b = appendF64s(appendI64s(appendI64s(b, c.IMin), c.IMax), c.FMin)
		b = appendF64s(b, c.FMax)
	}
	return appendCheck(b)
}

// --- decoding ---

// reader is a bounds-checked cursor over an entry's bytes; the first
// violation latches err and every later read returns zero values.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCodec, fmt.Sprintf(format, args...))
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.fail("need %d bytes, %d remain", n, r.remaining())
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// fixed returns the next n bytes (n <= 8), or zeros once a read failed.
func (r *reader) fixed(n int) []byte {
	if b := r.take(n); b != nil {
		return b
	}
	return zeros[:n]
}

var zeros [8]byte

func (r *reader) u8() uint8   { return r.fixed(1)[0] }
func (r *reader) u16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }
func (r *reader) i64() int64  { return int64(r.u64()) }

// count reads a 64-bit element count and validates that width*count elements
// can still be present, bounding allocations on corrupt input.
func (r *reader) count(width int) int {
	n := r.i64()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > int64(r.remaining())/int64(width) {
		r.fail("element count %d exceeds remaining %d bytes", n, r.remaining())
		return 0
	}
	return int(n)
}

func (r *reader) i64s(n int) []int64 {
	b := r.take(n * 8)
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func (r *reader) f64s(n int) []float64 {
	b := r.take(n * 8)
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// end returns the first violation, or one if bytes remain after the payload.
func (r *reader) end() error {
	if r.err == nil && r.remaining() != 0 {
		r.fail("%d trailing bytes", r.remaining())
	}
	return r.err
}

// column reads one offsets column anchored at anchor (nil: absolute).
func (r *reader) column(anchor *offsets.Column) *offsets.Column {
	if r.err != nil {
		return nil
	}
	c, n, err := offsets.Read(r.b[r.off:], anchor)
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	r.off += n
	return c
}

// offsetColumns reads n columns of byte offsets into the raw file, the first
// absolute and the others anchored at it, as positional maps and structural
// indexes store them. Scans trust every offset, so each must lie in the raw
// file, [0, size): one outside would panic them.
func (r *reader) offsetColumns(n int, size int64) []*offsets.Column {
	cols := make([]*offsets.Column, 0, min(n, 64))
	var anchor *offsets.Column
	for i := 0; i < n && r.err == nil; i++ {
		c := r.column(anchor)
		r.check(c, 0, size, false)
		cols = append(cols, c)
		anchor = cols[0]
	}
	return cols
}

// check fails the read unless every value of c lies in [lo, hi) and, if
// ascending is set, exceeds the value before it. The values are decoded a
// window at a time.
func (r *reader) check(c *offsets.Column, lo, hi int64, ascending bool) {
	const window = 32 * offsets.ChunkRows
	var buf []int64
	prev := lo - 1
	for at := int64(0); at < c.Len() && r.err == nil; at += window {
		buf = c.Decode(buf, at, min(at+window, c.Len()))
		for _, v := range buf {
			if v < lo || v >= hi || ascending && v <= prev {
				r.fail("value %d outside [%d, %d) or not above %d", v, lo, hi, prev)
				break
			}
			prev = v
		}
	}
}

// decodeHeader verifies magic, version, kind and the trailing checksum, and
// returns a reader positioned at the payload.
func decodeHeader(b []byte, kind Kind) (Fingerprint, *reader, error) {
	const headerLen = 4 + 2 + 1 + 32
	if len(b) < headerLen+8 {
		return Fingerprint{}, nil, fmt.Errorf("%w: %d bytes is shorter than any entry", ErrCodec, len(b))
	}
	h := fnv.New64a()
	h.Write(b[:len(b)-8])
	if got := binary.LittleEndian.Uint64(b[len(b)-8:]); got != h.Sum64() {
		return Fingerprint{}, nil, fmt.Errorf("%w: checksum mismatch", ErrCodec)
	}
	r := &reader{b: b[:len(b)-8]}
	if string(r.take(4)) != codecMagic {
		return Fingerprint{}, nil, fmt.Errorf("%w: bad magic", ErrCodec)
	}
	if v := r.u16(); v != kinds[kind].version {
		return Fingerprint{}, nil, fmt.Errorf("%w: version %d, want %d", ErrCodec, v, kinds[kind].version)
	}
	if k := Kind(r.u8()); k != kind {
		return Fingerprint{}, nil, fmt.Errorf("%w: kind %d, want %d", ErrCodec, k, kind)
	}
	fp := Fingerprint{Size: r.i64(), MTime: r.i64(), Sum: r.u64(), Schema: r.u64()}
	return fp, r, r.err
}

// DecodePosMap decodes a posmap entry, returning the fingerprint it was
// saved under.
func DecodePosMap(b []byte) (Fingerprint, *posmap.Map, error) {
	fp, r, err := decodeHeader(b, KindPosMap)
	if err != nil {
		return fp, nil, err
	}
	nrows := r.i64()
	nt := int(r.u32())
	if r.err == nil && nt > r.remaining()/4 {
		r.fail("implausible tracked column count %d", nt)
	}
	tracked := make([]int, 0, min(nt, 1024))
	for i := 0; i < nt && r.err == nil; i++ {
		tracked = append(tracked, int(r.u32()))
	}
	pos := r.offsetColumns(nt, fp.Size)
	if err := r.end(); err != nil {
		return fp, nil, err
	}
	pm, err := posmap.Restore(tracked, pos, nrows)
	if err != nil {
		return fp, nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	return fp, pm, nil
}

// DecodeJSONIdx decodes a structural-index entry.
func DecodeJSONIdx(b []byte) (Fingerprint, *jsonidx.Index, error) {
	fp, r, err := decodeHeader(b, KindJSONIdx)
	if err != nil {
		return fp, nil, err
	}
	np := int(r.u32())
	// Cap the path-count prefix against remaining bytes (>= 4 bytes per
	// path) before sizing anything, like every other count in this codec.
	if r.err == nil && np > r.remaining()/4 {
		r.fail("implausible path count %d", np)
	}
	names := make([]string, 0, min(np, 1024))
	for i := 0; i < np && r.err == nil; i++ {
		names = append(names, string(r.take(int(r.u32()))))
	}
	cols := r.offsetColumns(1+np, fp.Size)
	if err := r.end(); err != nil {
		return fp, nil, err
	}
	paths := make(map[string]*offsets.Column, np)
	for i, name := range names {
		paths[name] = cols[1+i]
	}
	if len(paths) != np {
		return fp, nil, fmt.Errorf("%w: %d paths, %d of them distinct", ErrCodec, np, len(paths))
	}
	return fp, jsonidx.Restore(cols[0], paths), nil
}

// DecodeSynopsis decodes a synopsis entry. Shape validation is shared with
// synopsis.Restore, so a checksum-valid but inconsistent entry (hand-edited,
// bit-rotted) still fails cleanly into a cold rebuild instead of letting an
// unsound zone map prune live rows.
func DecodeSynopsis(b []byte) (Fingerprint, *synopsis.Synopsis, error) {
	fp, r, err := decodeHeader(b, KindSynopsis)
	if err != nil {
		return fp, nil, err
	}
	nrows := r.i64()
	nb := r.count(8)
	bounds := r.i64s(nb)
	if r.err != nil {
		return fp, nil, r.err
	}
	if nb < 2 {
		return fp, nil, fmt.Errorf("%w: synopsis with %d bounds", ErrCodec, nb)
	}
	nz := nb - 1
	nc := int(r.u32())
	// Each column needs at least 5 bytes; cap the count prefix.
	if nc < 0 || nc > r.remaining()/5 {
		return fp, nil, fmt.Errorf("%w: implausible synopsis column count %d", ErrCodec, nc)
	}
	cols := make([]*synopsis.Column, 0, nc)
	for i := 0; i < nc && r.err == nil; i++ {
		c := &synopsis.Column{Col: int(r.u32()), Type: vector.Type(r.u8())}
		switch c.Type {
		case vector.Int64:
			c.IMin = r.i64s(nz)
			c.IMax = r.i64s(nz)
		case vector.Float64:
			c.FMin, c.FMax = r.f64s(nz), r.f64s(nz)
		default:
			r.fail("unknown synopsis column type %d", uint8(c.Type))
		}
		cols = append(cols, c)
	}
	if err := r.end(); err != nil {
		return fp, nil, err
	}
	s, err := synopsis.Restore(nrows, bounds, cols)
	if err != nil {
		return fp, nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	return fp, s, nil
}

// DecodeShreds decodes a shreds entry.
func DecodeShreds(b []byte) (Fingerprint, []TableShred, error) {
	fp, r, err := decodeHeader(b, KindShreds)
	if err != nil {
		return fp, nil, err
	}
	ns := int(r.u32())
	var out []TableShred
	for i := 0; i < ns && r.err == nil; i++ {
		ts := TableShred{Col: int(r.u32())}
		vt, full := vector.Type(r.u8()), r.u8()
		if r.err == nil && (full > 1 || vt != vector.Int64 && vt != vector.Float64 && vt != vector.Bool && vt != vector.Bytes) {
			r.fail("shred of column %d: type %d, full flag %d", ts.Col, vt, full)
		}
		if full == 0 {
			ts.Rows = r.column(nil)
			r.check(ts.Rows, 0, math.MaxInt64, true)
		}
		if vt == vector.Int64 {
			ts.Ints = r.column(nil)
		} else {
			ts.Vec = r.values(vt)
		}
		if r.err == nil && ts.Rows != nil && ts.Rows.Len() != ts.Len() {
			r.fail("%d row ids for %d values", ts.Rows.Len(), ts.Len())
		}
		out = append(out, ts)
	}
	if err := r.end(); err != nil {
		return fp, nil, err
	}
	return fp, out, nil
}

// values reads a flat vector of type vt (not Int64): its length, then its
// values.
func (r *reader) values(vt vector.Type) *vector.Vector {
	if vt == vector.Float64 {
		return &vector.Vector{Type: vt, Float64s: r.f64s(r.count(8))}
	}
	n := r.count(1)
	vec := vector.New(vt, n)
	for j := 0; j < n && r.err == nil; j++ {
		switch vt {
		case vector.Bool:
			v := r.u8()
			if v > 1 {
				r.fail("bad bool byte %d", v)
			}
			vec.AppendBool(v == 1)
		case vector.Bytes:
			vec.AppendBytes(append([]byte(nil), r.take(int(r.u32()))...))
		}
	}
	return vec
}
