package vault

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"rawdb/internal/dataset"
	"rawdb/internal/jsonidx"
	"rawdb/internal/posmap"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

// Codec of .rawv entries, all little-endian:
//
//	magic    "RAWV"
//	version  uint16  CodecVersion, or a kind's own (Kind.version)
//	kind     uint8
//	fp       Size int64 | MTime int64 | Sum uint64 | Schema uint64
//	payload  kind-specific (below)
//	check    uint64  FNV-64a of every preceding byte
//
// Payloads:
//
//	posmap   nrows int64, ntracked uint32, tracked [ntracked]uint32,
//	         positions [ntracked][nrows]int64
//	jsonidx  nrows int64, rowstarts [nrows]int64, npaths uint32, then per
//	         path: len uint32, name, offsets [nrows]int64
//	shreds   nshreds uint32, then per shred: col uint32, full uint8,
//	         (if partial) nrows int64 + rowids [nrows]int64,
//	         vtype uint8, nvals int64, values (fixed 8/1 bytes, or
//	         len-prefixed for VARCHAR)
//	synopsis nrows int64, nbounds int64, bounds [nbounds]int64
//	         (ascending, bounds[0] = 0, bounds[nbounds-1] = nrows),
//	         ncols uint32, then per column: col uint32, vtype uint8,
//	         mins [nbounds-1] + maxs [nbounds-1] (int64, or float64 bits)
//
// Decoding is defensive end to end: every length is bounds-checked against
// the remaining bytes before allocation, and any violation returns an error
// (never a panic) so the engine cold-rebuilds — the contract FuzzVaultDecode
// exercises.

const (
	codecMagic = "RAWV"
	// CodecVersion is bumped on any incompatible layout change; entries with
	// another version are treated as invalid (cold rebuild).
	CodecVersion = 1
)

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
// budget keys, its file name, and its decoder.
var kinds = [...]struct {
	label, file string
	decode      func([]byte) (Fingerprint, any, error)
}{
	KindPosMap:   {"posmap", "posmap.rawv", boxed(DecodePosMap)},
	KindJSONIdx:  {"jsonidx", "jsonidx.rawv", boxed(DecodeJSONIdx)},
	KindShreds:   {"shred", "shreds.rawv", boxed(DecodeShreds)},
	KindSynopsis: {"synopsis", "synopsis.rawv", boxed(DecodeSynopsis)},
	KindManifest: {"manifest", "manifest.rawv", boxed(DecodeManifest)},
}

// boxed adapts a typed decoder to the kinds table.
func boxed[T any](dec func([]byte) (Fingerprint, T, error)) func([]byte) (Fingerprint, any, error) {
	return func(b []byte) (Fingerprint, any, error) { return dec(b) }
}

// String returns the structure label used across metrics and events.
func (k Kind) String() string {
	if int(k) < len(kinds) && kinds[k].label != "" {
		return kinds[k].label
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// version is the layout version entries of kind k are written with and must
// carry: CodecVersion, but for a kind whose own layout changed since, which
// moves alone so that the other kinds' entries stay valid. Manifests are one
// ahead: their partitions carry the inode.
func (k Kind) version() uint16 {
	if k == KindManifest {
		return CodecVersion + 1
	}
	return CodecVersion
}

// decode decodes an entry of the given kind, returning the fingerprint it
// was saved under.
func decode(kind Kind, b []byte) (Fingerprint, any, error) {
	if int(kind) >= len(kinds) || kinds[kind].decode == nil {
		return Fingerprint{}, nil, fmt.Errorf("%w: unknown kind %d", ErrCodec, kind)
	}
	return kinds[kind].decode(b)
}

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

// TableShred is the serialised form of one cached column shred: column index,
// optional sorted row ids (nil = full column) and the value vector.
type TableShred struct {
	Col    int
	RowIDs []int64
	Vec    *vector.Vector
}

// --- encoding ---

func appendHeader(b []byte, kind Kind, fp Fingerprint) []byte {
	b = append(b, codecMagic...)
	b = binary.LittleEndian.AppendUint16(b, kind.version())
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
		b = appendI64s(b, pm.Positions(c).Decode(nil, 0, pm.NRows()))
	}
	return appendCheck(b)
}

// EncodeJSONIdx serialises a structural index (row starts plus every fully
// recorded path).
func EncodeJSONIdx(fp Fingerprint, x *jsonidx.Index) []byte {
	n := x.NRows()
	b := appendHeader(nil, KindJSONIdx, fp)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	b = appendI64s(b, x.RowStarts().Decode(nil, 0, n))
	paths := x.TrackedPaths()
	// Only complete recordings serialise (defensively); Peek counts no seek.
	var full []string
	for _, p := range paths {
		if x.Peek(p).Len() == n {
			full = append(full, p)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(full)))
	for _, p := range full {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
		b = appendI64s(b, x.Peek(p).Decode(nil, 0, n))
	}
	return appendCheck(b)
}

// EncodeShreds serialises the cached shreds of one table.
func EncodeShreds(fp Fingerprint, shreds []TableShred) []byte {
	b := appendHeader(nil, KindShreds, fp)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(shreds)))
	for _, s := range shreds {
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Col))
		if s.RowIDs == nil {
			b = append(b, 1)
		} else {
			b = append(b, 0)
			b = binary.LittleEndian.AppendUint64(b, uint64(len(s.RowIDs)))
			b = appendI64s(b, s.RowIDs)
		}
		b = append(b, byte(s.Vec.Type))
		n := s.Vec.Len()
		b = binary.LittleEndian.AppendUint64(b, uint64(n))
		switch s.Vec.Type {
		case vector.Int64:
			b = appendI64s(b, s.Vec.Int64s)
		case vector.Float64:
			for _, v := range s.Vec.Float64s {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
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
		if c.Type == vector.Int64 {
			b = appendI64s(b, c.IMin)
			b = appendI64s(b, c.IMax)
		} else {
			for _, v := range c.FMin {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
			for _, v := range c.FMax {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
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

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

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
	if r.err != nil || n == 0 {
		return nil
	}
	b := r.take(n * 8)
	if b == nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
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
	if v := r.u16(); v != kind.version() {
		return Fingerprint{}, nil, fmt.Errorf("%w: version %d, want %d", ErrCodec, v, kind.version())
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
	if r.err == nil && (nrows < 0 || nt < 0 || nt > r.remaining()/4) {
		r.fail("implausible posmap shape %d x %d", nt, nrows)
	}
	tracked := make([]int, 0, max(nt, 0))
	for i := 0; i < nt && r.err == nil; i++ {
		tracked = append(tracked, int(r.u32()))
	}
	pos := make([][]int64, 0, len(tracked))
	for range tracked {
		if r.err == nil && nrows > int64(r.remaining())/8 {
			r.fail("posmap rows %d exceed remaining bytes", nrows)
		}
		offs := r.i64s(int(nrows))
		// Positions index into the raw file: a checksum-valid entry whose
		// offsets escape [0, Size) would panic the scans that trust them, so
		// range-check here and cold-rebuild instead.
		for _, p := range offs {
			if p < 0 || p >= fp.Size {
				r.fail("position %d outside raw file of %d bytes", p, fp.Size)
				break
			}
		}
		pos = append(pos, offs)
	}
	if r.err != nil {
		return fp, nil, r.err
	}
	if r.remaining() != 0 {
		return fp, nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, r.remaining())
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
	nrows := r.count(8)
	rows := r.i64s(nrows)
	for _, p := range rows {
		if p < 0 || p >= fp.Size {
			return fp, nil, fmt.Errorf("%w: row start %d outside raw file of %d bytes", ErrCodec, p, fp.Size)
		}
	}
	np := int(r.u32())
	// Cap the path-count prefix against remaining bytes (>= 4 bytes per
	// path) before sizing the map, like every other count in this codec.
	if np < 0 || np > r.remaining()/4 {
		return fp, nil, fmt.Errorf("%w: implausible path count %d", ErrCodec, np)
	}
	paths := make(map[string][]int64, np)
	for i := 0; i < np && r.err == nil; i++ {
		nl := int(r.u32())
		name := string(r.take(nl))
		if r.err == nil && nrows > r.remaining()/8 {
			r.fail("path %q offsets exceed remaining bytes", name)
			break
		}
		offs := r.i64s(nrows)
		if r.err == nil {
			if _, dup := paths[name]; dup {
				r.fail("duplicate path %q", name)
				break
			}
			for _, p := range offs {
				if p < 0 || p >= fp.Size {
					r.fail("offset %d of path %q outside raw file of %d bytes", p, name, fp.Size)
					break
				}
			}
			paths[name] = offs
		}
	}
	if r.err != nil {
		return fp, nil, r.err
	}
	if r.remaining() != 0 {
		return fp, nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, r.remaining())
	}
	return fp, jsonidx.Restore(rows, paths), nil
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
	// Each column needs at least 5 + 2*nz*8 bytes; cap the count prefix.
	if nc < 0 || nc > r.remaining()/5 {
		return fp, nil, fmt.Errorf("%w: implausible synopsis column count %d", ErrCodec, nc)
	}
	cols := make([]*synopsis.Column, 0, nc)
	for i := 0; i < nc && r.err == nil; i++ {
		c := &synopsis.Column{Col: int(r.u32()), Type: vector.Type(r.u8())}
		if r.err != nil {
			break
		}
		if r.remaining() < nz*16 {
			r.fail("synopsis column %d bounds exceed remaining bytes", c.Col)
			break
		}
		switch c.Type {
		case vector.Int64:
			c.IMin = r.i64s(nz)
			c.IMax = r.i64s(nz)
		case vector.Float64:
			c.FMin = make([]float64, nz)
			for j := range c.FMin {
				c.FMin[j] = math.Float64frombits(r.u64())
			}
			c.FMax = make([]float64, nz)
			for j := range c.FMax {
				c.FMax[j] = math.Float64frombits(r.u64())
			}
		default:
			r.fail("unknown synopsis column type %d", uint8(c.Type))
		}
		cols = append(cols, c)
	}
	if r.err != nil {
		return fp, nil, r.err
	}
	if r.remaining() != 0 {
		return fp, nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, r.remaining())
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
		if ts.Col < 0 {
			r.fail("negative column index")
			break
		}
		full := r.u8()
		if full > 1 {
			r.fail("bad full flag %d", full)
			break
		}
		if full == 0 {
			nr := r.count(8)
			ts.RowIDs = r.i64s(nr)
			if ts.RowIDs == nil && nr > 0 {
				break
			}
			if ts.RowIDs == nil {
				ts.RowIDs = []int64{} // partial shred with zero rows stays non-nil
			}
			for j := 1; j < len(ts.RowIDs); j++ {
				if ts.RowIDs[j] <= ts.RowIDs[j-1] {
					r.fail("row ids not strictly ascending")
					break
				}
			}
		}
		vt := vector.Type(r.u8())
		if r.err == nil && vt != vector.Int64 && vt != vector.Float64 && vt != vector.Bool && vt != vector.Bytes {
			r.fail("unknown vector type %d", vt)
			break
		}
		var n int
		switch vt {
		case vector.Int64, vector.Float64:
			n = r.count(8)
		default:
			n = r.count(1)
		}
		if r.err != nil {
			break
		}
		if ts.RowIDs != nil && len(ts.RowIDs) != n {
			r.fail("%d row ids for %d values", len(ts.RowIDs), n)
			break
		}
		vec := vector.New(vt, n)
		switch vt {
		case vector.Int64:
			vec.Int64s = r.i64s(n)
			if vec.Int64s == nil {
				vec.Int64s = []int64{}
			}
		case vector.Float64:
			for j := 0; j < n && r.err == nil; j++ {
				vec.AppendFloat64(math.Float64frombits(r.u64()))
			}
		case vector.Bool:
			for j := 0; j < n && r.err == nil; j++ {
				v := r.u8()
				if v > 1 {
					r.fail("bad bool byte %d", v)
					break
				}
				vec.AppendBool(v == 1)
			}
		case vector.Bytes:
			for j := 0; j < n && r.err == nil; j++ {
				bl := int(r.u32())
				v := r.take(bl)
				if r.err == nil {
					vec.AppendBytes(append([]byte(nil), v...))
				}
			}
		}
		if r.err != nil {
			break
		}
		ts.Vec = vec
		out = append(out, ts)
	}
	if r.err != nil {
		return fp, nil, r.err
	}
	if r.remaining() != 0 {
		return fp, nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, r.remaining())
	}
	return fp, out, nil
}
