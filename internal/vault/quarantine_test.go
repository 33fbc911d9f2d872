package vault

import (
	"os"
	"path/filepath"
	"testing"

	"rawdb/internal/faults"
	"rawdb/internal/posmap"
)

// FuzzQuarantine feeds arbitrary bytes through every restore path of a real
// on-disk store. The contract: no input panics, and any entry whose bytes
// fail to decode is quarantined — deleted from disk and reported — so the
// same corruption is never read twice. Well-formed entries with the wrong
// fingerprint are invalidated silently (deleted, not reported).
func FuzzQuarantine(f *testing.F) {
	fp := Fingerprint{Size: 1 << 20, Sum: 7, Schema: 3}
	pm := posmap.New(posmap.Policy{EveryK: 4}, 2)
	pm.AppendRow([]int64{0})
	valid := EncodePosMap(fp, pm)
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // torn tail: checksum must catch it
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte("RAWV"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		quarantined := 0
		s.OnQuarantine(func(table string, kind Kind, reason string) { quarantined++ })
		for _, kind := range []Kind{KindPosMap, KindJSONIdx, KindShreds, KindSynopsis, KindManifest} {
			path := s.EntryPath("tbl", kind)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := quarantined
			gotNil := s.Load("tbl", kind, fp) == nil
			if quarantined > before {
				if !gotNil {
					t.Fatalf("kind %s: load returned a structure AND quarantined", kind)
				}
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("kind %s: quarantined entry still on disk", kind)
				}
			}
		}
	})
}

// TestSweepOrphanTmpFiles: temp files stranded by a crash between
// CreateTemp and Rename are reclaimed at the next Open, and published
// entries are untouched.
func TestSweepOrphanTmpFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint{Size: 1 << 20, Sum: 1}
	pm := posmap.New(posmap.Policy{EveryK: 4}, 1)
	if err := s.WriteEntry("tbl", KindPosMap, EncodePosMap(fp, pm)); err != nil {
		t.Fatal(err)
	}
	tdir := filepath.Dir(s.EntryPath("tbl", KindPosMap))
	orphan := filepath.Join(tdir, ".tmp-123456")
	if err := os.WriteFile(orphan, []byte("stranded"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned .tmp file survived reopen")
	}
	if _, err := os.Stat(s.EntryPath("tbl", KindPosMap)); err != nil {
		t.Fatalf("published entry swept along with orphans: %v", err)
	}
}

// TestTornWriteQuarantines models the post-crash state an fsync-less rename
// can publish — a truncated entry under the final name — via the torn-write
// fault, and asserts the reader quarantines it.
func TestTornWriteQuarantines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	s.OnQuarantine(func(table string, kind Kind, reason string) {
		events = append(events, table+"/"+kind.String())
	})

	faults.Install(faults.NewSchedule(3,
		faults.Rule{Site: faults.SiteVaultWrite, Kind: faults.Torn, Times: 1}))
	defer faults.Disable()

	fp := Fingerprint{Size: 1 << 20, Sum: 9, Schema: 2}
	pm := posmap.New(posmap.Policy{EveryK: 4}, 2)
	for r := int64(0); r < 100; r++ {
		pm.AppendRow([]int64{r * 10})
	}
	if err := s.WriteEntry("tbl", KindPosMap, EncodePosMap(fp, pm)); err != nil {
		t.Fatal(err)
	}
	faults.Disable()

	if got := s.Load("tbl", KindPosMap, fp); got != nil {
		t.Fatal("torn entry decoded successfully; expected quarantine")
	}
	if len(events) != 1 || events[0] != "tbl/posmap" {
		t.Fatalf("quarantine events = %v, want [tbl/posmap]", events)
	}
	if _, err := os.Stat(s.EntryPath("tbl", KindPosMap)); !os.IsNotExist(err) {
		t.Fatal("torn entry not deleted")
	}
	// The store stays writable: a clean save round-trips.
	if err := s.WriteEntry("tbl", KindPosMap, EncodePosMap(fp, pm)); err != nil {
		t.Fatal(err)
	}
	if got := s.Load("tbl", KindPosMap, fp); got == nil {
		t.Fatal("clean save after quarantine did not load")
	}
}
