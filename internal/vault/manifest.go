package vault

import (
	"encoding/binary"
	"fmt"

	"rawdb/internal/catalog"
	"rawdb/internal/dataset"
)

// Manifest entries are the fifth vault record type: the partition list of a
// dataset table (path, ID, format, stat identity with the inode, row count
// per partition),
// saved under the dataset's own name while every partition's adaptive
// structures live in per-partition namespaces ("<table>#<partID>"). Its
// restart value is the per-partition row counts — everything else is
// re-discovered from the directory — plus the last-known stat identities the
// refresh diff runs against.
//
// Payload (appended to the shared header, little-endian):
//
//	manifest pattern len uint32 + bytes, nparts uint32, then per part:
//	         path len uint32 + bytes, id len uint32 + bytes,
//	         format uint8, size int64, mtime int64, inode uint64, rows int64
//
// The inode lets the first refresh after a restart tell a file renamed over
// a partition at the same size within one mtime tick. Entries written before
// it was stored carry the previous layout version and are rebuilt, not
// migrated.
//
// Like every other kind, decoding is defensive: every length is bounds-
// checked before allocation and any violation returns ErrCodec (cold
// rebuild), the contract FuzzManifestDecode exercises.

// maxManifestStr bounds decoded pattern/path/ID lengths; no sane path comes
// near it, and it keeps a corrupt length prefix from forcing a huge take.
const maxManifestStr = 1 << 20

// EncodeManifest serialises a dataset manifest.
func EncodeManifest(fp Fingerprint, m *dataset.Manifest) []byte {
	b := appendHeader(nil, KindManifest, fp)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Pattern)))
	b = append(b, m.Pattern...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Parts)))
	for _, p := range m.Parts {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Path)))
		b = append(b, p.Path...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.ID)))
		b = append(b, p.ID...)
		b = append(b, byte(p.Format))
		b = binary.LittleEndian.AppendUint64(b, uint64(p.Size))
		b = binary.LittleEndian.AppendUint64(b, uint64(p.MTime))
		b = binary.LittleEndian.AppendUint64(b, p.Inode)
		b = binary.LittleEndian.AppendUint64(b, uint64(p.Rows))
	}
	return appendCheck(b)
}

// manifestStr reads one length-prefixed string.
func (r *reader) manifestStr(what string) string {
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > maxManifestStr || n > r.remaining()) {
		r.fail("implausible %s length %d", what, n)
		return ""
	}
	return string(r.take(n))
}

// DecodeManifest decodes a manifest entry, returning the fingerprint it was
// saved under.
func DecodeManifest(b []byte) (Fingerprint, *dataset.Manifest, error) {
	fp, r, err := decodeHeader(b, KindManifest)
	if err != nil {
		return fp, nil, err
	}
	m := &dataset.Manifest{Pattern: r.manifestStr("pattern")}
	np := int(r.u32())
	// Each partition needs at least 4+4+1+32 bytes; cap the count prefix.
	if r.err == nil && (np < 0 || np > r.remaining()/41) {
		return fp, nil, fmt.Errorf("%w: implausible partition count %d", ErrCodec, np)
	}
	seenID := make(map[string]bool, np)
	for i := 0; i < np && r.err == nil; i++ {
		p := dataset.Partition{
			Path: r.manifestStr("path"),
			ID:   r.manifestStr("id"),
		}
		p.Format = catalog.Format(r.u8())
		p.Size = r.i64()
		p.MTime = r.i64()
		p.Inode = r.u64()
		p.Rows = r.i64()
		if r.err != nil {
			break
		}
		switch p.Format {
		case catalog.CSV, catalog.JSON, catalog.Binary:
		default:
			r.fail("format %d cannot back a partition", uint8(p.Format))
		}
		if p.ID == "" {
			r.fail("partition %d has an empty id", i)
		}
		if seenID[p.ID] {
			r.fail("duplicate partition id %q", p.ID)
		}
		seenID[p.ID] = true
		if p.Size < 0 || p.Rows < -1 {
			r.fail("partition %q has negative size or rows", p.ID)
		}
		m.Parts = append(m.Parts, p)
	}
	if err := r.end(); err != nil {
		return fp, nil, err
	}
	return fp, m, nil
}
