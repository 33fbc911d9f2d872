// Package vault persists the engine's adaptively built auxiliary structures
// — positional maps, JSON structural indexes and column shreds — to disk, so
// a process restart starts from the cache state earlier queries paid for
// instead of from a cold scan. The paper's structures are built as a side
// effect of query execution and amortise raw-data access cost across queries;
// the vault extends that amortisation across process lifetimes, turning the
// cache directory into a durable "data vault" over the raw files.
//
// The vault is strictly a cache: every entry carries a fingerprint of the raw
// file it describes (size + mtime + sampled content checksum + schema hash)
// and a whole-entry checksum, and any mismatch, truncation or corruption
// makes the engine fall back to a cold rebuild. Deleting or corrupting the
// cache directory is therefore always safe.
//
// Entries live under <dir>/<table>/, one .rawv file per Kind, and are
// published by atomic rename, so concurrent readers never observe torn state.
package vault

import (
	"encoding/binary"
	"hash/fnv"
	"os"

	"rawdb/internal/catalog"
)

// Fingerprint identifies one version of a raw file (plus the schema it was
// registered under). A vault entry is valid only while the fingerprint it was
// saved with still matches the file: any size change (append, truncate),
// mtime change (rewrite, touch) or sampled-content change invalidates it.
//
// The checksum is sampled, not full-file — small files hash completely, large
// ones hash the head, tail and two interior windows — so an mtime change with
// an unchanged sample is treated as a modification too (the sample cannot
// prove the unsampled middle is unchanged). The conservative direction is
// deliberate: a stale structure silently describing new bytes would corrupt
// results, while a false invalidation merely costs one cold scan.
type Fingerprint struct {
	// Size is the raw file length in bytes.
	Size int64
	// MTime is the file modification time in Unix nanoseconds; 0 for
	// in-memory images (which are fingerprinted by size + checksum alone).
	MTime int64
	// Sum is the sampled FNV-64a content checksum.
	Sum uint64
	// Schema is a hash of the registered column names and types: the same
	// file registered under a different schema must not reuse entries built
	// for the old one (shred column indexes and types would not line up).
	Schema uint64
}

// sampleChunk is the window size of the sampled checksum.
const sampleChunk = 64 << 10

// sampleRanges returns the [offset, length] windows the checksum covers.
func sampleRanges(size int64) [][2]int64 {
	if size == 0 {
		return nil
	}
	if size <= 4*sampleChunk {
		return [][2]int64{{0, size}}
	}
	return [][2]int64{
		{0, sampleChunk},
		{size/3 - sampleChunk/2, sampleChunk},
		{2*size/3 - sampleChunk/2, sampleChunk},
		{size - sampleChunk, sampleChunk},
	}
}

// sampledSum hashes the file size and the sampled windows supplied by read.
func sampledSum(size int64, read func(off, n int64) ([]byte, error)) (uint64, error) {
	h := fnv.New64a()
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(size)))
	for _, r := range sampleRanges(size) {
		b, err := read(r[0], r[1])
		if err != nil {
			return 0, err
		}
		h.Write(b)
	}
	return h.Sum64(), nil
}

// DataFingerprint fingerprints an in-memory raw image (tables registered via
// Register*Data). MTime is 0: the image has no file identity beyond its
// content.
func DataFingerprint(data []byte) Fingerprint {
	size := int64(len(data))
	sum, _ := sampledSum(size, func(off, n int64) ([]byte, error) {
		return data[off : off+n], nil
	})
	return Fingerprint{Size: size, Sum: sum}
}

// FileFingerprint fingerprints a raw file on disk, reading only the sampled
// windows (a few hundred KiB at most, independent of file size).
func FileFingerprint(path string) (Fingerprint, error) {
	f, err := os.Open(path)
	if err != nil {
		return Fingerprint{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return Fingerprint{}, err
	}
	size := st.Size()
	// Files at most 4 windows long hash completely in one range, so the
	// buffer must cover min(size, 4*sampleChunk), not one window.
	bufLen := size
	if bufLen > 4*sampleChunk {
		bufLen = sampleChunk
	}
	buf := make([]byte, bufLen)
	sum, err := sampledSum(size, func(off, n int64) ([]byte, error) {
		_, err := f.ReadAt(buf[:n], off)
		return buf[:n], err
	})
	if err != nil {
		return Fingerprint{}, err
	}
	return Fingerprint{Size: size, MTime: st.ModTime().UnixNano(), Sum: sum}, nil
}

// SchemaHash hashes a registered schema (column names and types, in order)
// into the Schema component of a fingerprint.
func SchemaHash(schema []catalog.Column) uint64 {
	h := fnv.New64a()
	for _, c := range schema {
		h.Write([]byte(c.Name))
		h.Write([]byte{0, byte(c.Type)})
	}
	return h.Sum64()
}
