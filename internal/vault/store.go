package vault

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rawdb/internal/faults"
)

// Store is one on-disk vault: a directory holding, per table, up to one
// entry per structure kind. All methods are safe for concurrent use by
// multiple goroutines (and, thanks to atomic rename-on-publish, by multiple
// processes sharing the directory: readers see either the old complete entry
// or the new complete entry, never a torn mix).
type Store struct {
	dir string
	// onQuarantine, when set, observes every entry deleted because its bytes
	// would not decode (disk corruption, torn write); stale-but-well-formed
	// entries invalidated by a fingerprint mismatch do not report here.
	onQuarantine func(table string, kind Kind, reason string)
}

// Open creates (if needed) and opens a vault directory, sweeping any
// orphaned temporary files a crashed writer left behind.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("vault: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sweepOrphans(dir)
	return &Store{dir: dir}, nil
}

// OnQuarantine registers the corruption observer. Call before the store is
// shared; the engine wires it to its metrics and event log.
func (s *Store) OnQuarantine(fn func(table string, kind Kind, reason string)) {
	s.onQuarantine = fn
}

// sweepOrphans removes ".tmp-*" files from every table directory: a crash
// between CreateTemp and Rename strands them, and nothing else ever reclaims
// the space (published entries are renamed away from their temp name).
func sweepOrphans(dir string) {
	tables, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, td := range tables {
		if !td.IsDir() {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(dir, td.Name()))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".tmp-") {
				os.Remove(filepath.Join(dir, td.Name(), e.Name()))
			}
		}
	}
}

// Dir returns the vault's root directory.
func (s *Store) Dir() string { return s.dir }

// tableDirName escapes a table name into a safe single path component.
func tableDirName(table string) string {
	safe := make([]byte, 0, len(table))
	for i := 0; i < len(table); i++ {
		c := table[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-':
			safe = append(safe, c)
		default:
			safe = append(safe, '%', "0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xf])
		}
	}
	if len(safe) == 0 {
		return "%empty"
	}
	return string(safe)
}

func kindFile(kind Kind) string {
	if int(kind) < len(kinds) && kinds[kind].file != "" {
		return kinds[kind].file
	}
	return fmt.Sprintf("kind%d.rawv", kind)
}

// EntryPath returns the path an entry is published at.
func (s *Store) EntryPath(table string, kind Kind) string {
	return filepath.Join(s.dir, tableDirName(table), kindFile(kind))
}

// WriteEntry atomically publishes one encoded entry: the bytes are written to
// a temporary file in the table directory, synced, and renamed over the final
// name, so a concurrent reader (or a crash mid-write) never observes partial
// content. The fsync before the rename matters on journalled filesystems: a
// rename can be durable before the data it points at, and a crash in that
// window would publish a torn entry under the final name.
func (s *Store) WriteEntry(table string, kind Kind, data []byte) error {
	if err := faults.Hit(faults.SiteVaultWrite); err != nil {
		return fmt.Errorf("vault: write %s/%s: %w", table, kindFile(kind), err)
	}
	data = faults.TornWrite(faults.SiteVaultWrite, data)
	dir := filepath.Join(s.dir, tableDirName(table))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, kindFile(kind)))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// ReadEntry returns the raw bytes of an entry, or nil when absent or
// unreadable (the vault is a cache: every read failure means "cold").
func (s *Store) ReadEntry(table string, kind Kind) []byte {
	if faults.Hit(faults.SiteVaultRead) != nil {
		return nil
	}
	b, err := os.ReadFile(s.EntryPath(table, kind))
	if err != nil {
		return nil
	}
	return faults.ReadData(faults.SiteVaultRead, b)
}

// quarantine deletes an entry whose bytes would not decode and reports it to
// the observer. Unlike a stale entry (fingerprint mismatch after a legitimate
// file change), an undecodable one means the stored bytes themselves are bad
// — disk corruption or a torn write — which operators want to see.
func (s *Store) quarantine(table string, kind Kind, err error) {
	os.Remove(s.EntryPath(table, kind))
	if s.onQuarantine != nil {
		s.onQuarantine(table, kind, err.Error())
	}
}

// Invalidate removes one entry (best effort); used when a load finds a stale
// or corrupt entry so the next restart does not retry the same bytes.
func (s *Store) Invalidate(table string, kind Kind) {
	os.Remove(s.EntryPath(table, kind))
}

// RemoveTable deletes every entry of one table.
func (s *Store) RemoveTable(table string) error {
	return os.RemoveAll(filepath.Join(s.dir, tableDirName(table)))
}

// Load returns the structure stored for table under kind — a *posmap.Map,
// *jsonidx.Index, []TableShred, *synopsis.Synopsis or *dataset.Manifest — if
// present and still valid for fp. A stale entry is removed and an undecodable
// one quarantined; both return nil.
func (s *Store) Load(table string, kind Kind, fp Fingerprint) any {
	b := s.ReadEntry(table, kind)
	if b == nil {
		return nil
	}
	got, x, err := decode(kind, b)
	if err != nil {
		s.quarantine(table, kind, err)
		return nil
	}
	if got != fp {
		s.Invalidate(table, kind)
		return nil
	}
	return x
}
