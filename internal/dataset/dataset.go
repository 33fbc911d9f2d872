// Package dataset maps a directory (or glob) of raw files onto one logical
// table: discovery enumerates the matching files in a deterministic order,
// infers each file's format from its extension (with an optional explicit
// override), and records the result in a Manifest — the partition list the
// engine plans against. Real raw data arrives as directories of log/export
// files, often in mixed formats; the manifest is what lets the paper's
// single-file machinery (JIT access paths, positional maps, structural
// indexes, column shreds, zone-map synopses) multiply across N files while
// the table stays one name in SQL.
//
// A manifest is cheap to refresh: Diff compares two discoveries by path and
// stat identity (size + mtime), classifying partitions as unchanged, added,
// removed or changed, so the engine can pick up newly-arrived files and
// invalidate truncated/rewritten ones per partition rather than per table.
// Manifests persist in the vault as a fifth record type (manifest.rawv, see
// internal/vault), carrying per-partition row counts across restarts.
package dataset

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rawdb/internal/catalog"
	"rawdb/internal/faults"
	"rawdb/internal/storage/rawfile"
)

// AutoFormat asks Discover to infer each file's format from its extension.
const AutoFormat catalog.Format = 0xff

// Partition is one raw file of a dataset.
type Partition struct {
	// Path is the file path; empty for in-memory partitions.
	Path string
	// ID is the partition identity derived from the path (the base name,
	// hash-suffixed only on collision). Engine-side cache and vault
	// namespaces key off it, so it never depends on the partition's index
	// in the manifest: files sorting into the middle of the list do not
	// shift the identity of their neighbours. It CAN change when a
	// colliding base name appears or vanishes elsewhere in the set; Compare
	// classifies that as a change, so the partition is invalidated rather
	// than left writing under a name the manifest no longer records.
	ID string
	// Format is the concrete file format of this partition.
	Format catalog.Format
	// Size and MTime are the stat identity Diff compares (MTime in Unix
	// nanoseconds; both 0 for in-memory partitions, which never refresh).
	Size  int64
	MTime int64
	// Inode tells a file renamed over the partition at the same size within
	// one modification-time tick, also across a restart (the vaulted manifest
	// stores it). 0 where unknown: in-memory partitions, non-unix builds.
	Inode uint64
	// Rows is the partition's row count, -1 until a scan established it.
	Rows int64
}

// Manifest is the ordered partition list of one dataset. Partitions are
// sorted by path; concatenating them in manifest order defines the logical
// row order of the table (and therefore what "file order" means for
// first-encounter grouping and float accumulation).
type Manifest struct {
	// Pattern is the directory or glob the dataset was registered with
	// (empty for in-memory datasets).
	Pattern string
	Parts   []Partition
}

// NRows returns the total row count, or -1 while any partition is unknown.
func (m *Manifest) NRows() int64 {
	var total int64
	for _, p := range m.Parts {
		if p.Rows < 0 {
			return -1
		}
		total += p.Rows
	}
	return total
}

// FormatForExt infers a partition format from a file extension (with or
// without the leading dot, any case). ok is false for unknown extensions.
func FormatForExt(ext string) (catalog.Format, bool) {
	switch strings.ToLower(strings.TrimPrefix(ext, ".")) {
	case "csv":
		return catalog.CSV, true
	case "json", "jsonl", "ndjson":
		return catalog.JSON, true
	case "bin":
		return catalog.Binary, true
	}
	return 0, false
}

// supportedOverride reports whether a format can back a dataset partition.
// ROOT files need per-tree registration and memory tables have no raw file,
// so neither participates in datasets.
func supportedOverride(f catalog.Format) bool {
	return f == catalog.CSV || f == catalog.JSON || f == catalog.Binary
}

// Discover enumerates the files matching pattern — a directory (all regular
// files inside, non-recursive) or a filepath.Glob pattern — and returns
// their manifest, sorted by path. override forces one format for every file;
// AutoFormat infers per file from the extension (dotfiles are skipped, any
// other unrecognised extension is an error: a stray file silently changing a
// table's contents would be worse than a loud registration failure). An
// empty match is a valid, empty dataset: files may arrive later and be
// picked up by refresh.
func Discover(pattern string, override catalog.Format) (*Manifest, error) {
	if override != AutoFormat && !supportedOverride(override) {
		return nil, fmt.Errorf("dataset: format %s cannot back dataset partitions", override)
	}
	if err := faults.Hit(faults.SiteDatasetStat); err != nil {
		return nil, fmt.Errorf("dataset: discovering %q: %w", pattern, err)
	}
	var paths []string
	if st, err := os.Stat(pattern); err == nil && st.IsDir() {
		ents, err := os.ReadDir(pattern)
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		for _, ent := range ents {
			if ent.Type().IsRegular() {
				paths = append(paths, filepath.Join(pattern, ent.Name()))
			}
		}
	} else {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			return nil, fmt.Errorf("dataset: bad pattern %q: %w", pattern, err)
		}
		for _, p := range matches {
			if st, err := os.Stat(p); err == nil && st.Mode().IsRegular() {
				paths = append(paths, p)
			}
		}
	}
	sort.Strings(paths)

	m := &Manifest{Pattern: pattern}
	for _, p := range paths {
		base := filepath.Base(p)
		format := override
		if override == AutoFormat {
			if strings.HasPrefix(base, ".") {
				continue // editor droppings, .DS_Store and friends
			}
			f, ok := FormatForExt(filepath.Ext(base))
			if !ok {
				return nil, fmt.Errorf("dataset: %s: cannot infer format from extension (register with an explicit format, or remove the file)", p)
			}
			format = f
		}
		st, err := os.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		m.Parts = append(m.Parts, Partition{
			Path:   p,
			Format: format,
			Size:   st.Size(),
			MTime:  st.ModTime().UnixNano(),
			Inode:  rawfile.IdentityOf(st).Ino,
			Rows:   -1,
		})
	}
	assignIDs(m.Parts)
	return m, nil
}

// assignIDs derives each partition's stable ID from its path: the base name
// alone while unique within the manifest, hash-suffixed otherwise (two
// "events.csv" in different subdirectories of a glob). The hash covers the
// full path, so an ID never depends on which other files happen to exist.
func assignIDs(parts []Partition) {
	count := make(map[string]int, len(parts))
	for _, p := range parts {
		count[filepath.Base(p.Path)]++
	}
	for i := range parts {
		base := filepath.Base(parts[i].Path)
		if count[base] > 1 {
			h := fnv.New64a()
			h.Write([]byte(parts[i].Path))
			parts[i].ID = fmt.Sprintf("%s@%08x", base, uint32(h.Sum64()))
		} else {
			parts[i].ID = base
		}
	}
}

// Diff classifies new against old by path: kept partitions appear in both
// with the same stat identity (their indexes returned as [oldIdx, newIdx]
// pairs), changed ones appear in both but were rewritten, truncated or
// touched (size or mtime differs), added exist only in new, removed only in
// old. Indexes refer to the respective manifest's Parts slice.
type Diff struct {
	Kept    [][2]int
	Changed [][2]int
	Added   []int
	Removed []int
}

// Unchanged reports whether the diff carries no change at all.
func (d *Diff) Unchanged() bool {
	return len(d.Changed) == 0 && len(d.Added) == 0 && len(d.Removed) == 0
}

// Compare diffs two manifests (see Diff).
func Compare(old, new *Manifest) *Diff {
	byPath := make(map[string]int, len(old.Parts))
	for i, p := range old.Parts {
		byPath[p.Path] = i
	}
	d := &Diff{}
	seen := make(map[int]bool, len(old.Parts))
	for ni, np := range new.Parts {
		oi, ok := byPath[np.Path]
		if !ok {
			d.Added = append(d.Added, ni)
			continue
		}
		seen[oi] = true
		op := old.Parts[oi]
		// An ID change (a colliding base name appeared or vanished
		// elsewhere in the set) reclassifies an otherwise-identical file as
		// changed: the partition's cache and vault namespaces key off the
		// ID, so keeping the old state would leave it writing under a name
		// the manifest no longer records.
		if op.Size != np.Size || op.MTime != np.MTime || op.Format != np.Format || op.ID != np.ID ||
			op.Inode != np.Inode && op.Inode != 0 && np.Inode != 0 {
			d.Changed = append(d.Changed, [2]int{oi, ni})
		} else {
			d.Kept = append(d.Kept, [2]int{oi, ni})
		}
	}
	for oi := range old.Parts {
		if !seen[oi] {
			d.Removed = append(d.Removed, oi)
		}
	}
	sort.Ints(d.Removed)
	return d
}
