package faults

import (
	"errors"
	"io/fs"
	"testing"
	"time"
)

// install swaps in a schedule for one test and guarantees removal.
func install(t *testing.T, s *Schedule) {
	t.Helper()
	Install(s)
	t.Cleanup(Disable)
}

func TestDisabledIsNoOp(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() with no schedule installed")
	}
	if err := Hit(SiteCSVLoad); err != nil {
		t.Fatalf("Hit on disabled registry: %v", err)
	}
	data := []byte("hello")
	if got := ReadData(SiteVaultRead, data); string(got) != "hello" {
		t.Fatalf("ReadData on disabled registry modified data: %q", got)
	}
	if got := TornWrite(SiteVaultWrite, data); string(got) != "hello" {
		t.Fatalf("TornWrite on disabled registry modified data: %q", got)
	}
}

func TestErrOnNthHit(t *testing.T) {
	install(t, NewSchedule(1, Rule{Site: SiteCSVLoad, Kind: Err, After: 2, Times: 1}))
	for i := 1; i <= 5; i++ {
		err := Hit(SiteCSVLoad)
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: want ErrInjected, got %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("hit %d: unexpected error %v", i, err)
		}
	}
}

func TestEveryAndTimes(t *testing.T) {
	s := NewSchedule(1, Rule{Site: SiteVaultRead, Kind: Err, Every: 3, Times: 2})
	install(t, s)
	var fired []int
	for i := 1; i <= 10; i++ {
		if Hit(SiteVaultRead) != nil {
			fired = append(fired, i)
		}
	}
	// Fires on hits 1 and 4 (every 3rd starting at the first), then Times
	// caps it.
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 4 {
		t.Fatalf("fired on hits %v, want [1 4]", fired)
	}
	if f := s.Fires(); f[0] != 2 {
		t.Fatalf("Fires() = %v, want [2]", f)
	}
}

func TestNotExist(t *testing.T) {
	install(t, NewSchedule(1, Rule{Site: SiteJSONLoad, Kind: NotExist}))
	err := Hit(SiteJSONLoad)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want fs.ErrNotExist, got %v", err)
	}
}

func TestSiteIsolation(t *testing.T) {
	install(t, NewSchedule(1, Rule{Site: SiteCSVLoad, Kind: Err}))
	if err := Hit(SiteJSONLoad); err != nil {
		t.Fatalf("rule for %s fired at %s: %v", SiteCSVLoad, SiteJSONLoad, err)
	}
	if err := Hit(SiteCSVLoad); err == nil {
		t.Fatal("rule did not fire at its own site")
	}
}

func TestClassesCountSeparately(t *testing.T) {
	// A data rule must not consume hits from control evaluations of the same
	// site: ReadData's first call still fires an After:0 data rule even after
	// several Hit calls.
	install(t, NewSchedule(1, Rule{Site: SiteVaultRead, Kind: ShortRead, Times: 1}))
	for i := 0; i < 3; i++ {
		if err := Hit(SiteVaultRead); err != nil {
			t.Fatalf("control hit %d: %v", i, err)
		}
	}
	data := make([]byte, 100)
	if got := ReadData(SiteVaultRead, data); len(got) >= 100 {
		t.Fatalf("short read did not truncate: %d bytes", len(got))
	}
}

func TestCorruptFlipsBitsDeterministically(t *testing.T) {
	mk := func() []byte {
		b := make([]byte, 64)
		for i := range b {
			b[i] = byte(i)
		}
		return b
	}
	run := func() []byte {
		s := NewSchedule(42, Rule{Site: SiteVaultRead, Kind: Corrupt})
		Install(s)
		defer Disable()
		return ReadData(SiteVaultRead, mk())
	}
	a, b := run(), run()
	if string(a) == string(mk()) {
		t.Fatal("corruption did not modify data")
	}
	if string(a) != string(b) {
		t.Fatal("same seed produced different corruption")
	}
}

// TestCorruptLeavesInputIntact: a fired Corrupt flips bits in a copy, never in
// the bytes it was handed, which may be a read-only mapping of the raw file.
func TestCorruptLeavesInputIntact(t *testing.T) {
	install(t, NewSchedule(42, Rule{Site: SiteCSVLoad, Kind: Corrupt, Times: 1}))
	in := []byte("1,2,3\n4,5,6\n7,8,9\n")
	orig := string(in)
	got := ReadData(SiteCSVLoad, in)
	if string(in) != orig {
		t.Fatalf("Corrupt wrote into its input: %q, was %q", in, orig)
	}
	if string(got) == orig {
		t.Fatal("Corrupt fired but returned the input unchanged")
	}
}

func TestTornWriteTruncates(t *testing.T) {
	install(t, NewSchedule(7, Rule{Site: SiteVaultWrite, Kind: Torn, Times: 1}))
	data := make([]byte, 100)
	if got := TornWrite(SiteVaultWrite, data); len(got) >= 100 {
		t.Fatalf("torn write did not truncate: %d bytes", len(got))
	}
	if got := TornWrite(SiteVaultWrite, data); len(got) != 100 {
		t.Fatalf("torn write fired past Times: %d bytes", len(got))
	}
}

func TestPanicKind(t *testing.T) {
	install(t, NewSchedule(1, Rule{Site: SiteExecMorsel, Kind: Panic}))
	defer func() {
		if recover() == nil {
			t.Fatal("Panic rule did not panic")
		}
	}()
	_ = Hit(SiteExecMorsel)
}

func TestHookKind(t *testing.T) {
	ran := 0
	install(t, NewSchedule(1, Rule{Site: SiteCSVLoad, Kind: Hook, Times: 2, Fn: func() { ran++ }}))
	for i := 0; i < 4; i++ {
		if err := Hit(SiteCSVLoad); err != nil {
			t.Fatalf("hook hit returned error: %v", err)
		}
	}
	if ran != 2 {
		t.Fatalf("hook ran %d times, want 2", ran)
	}
}

func TestLatencyKind(t *testing.T) {
	install(t, NewSchedule(1, Rule{Site: SiteCSVLoad, Kind: Latency, Latency: 10 * time.Millisecond, Times: 1}))
	start := time.Now()
	if err := Hit(SiteCSVLoad); err != nil {
		t.Fatalf("latency hit returned error: %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("latency hit returned after %v, want >= 10ms", d)
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("vault.read:corrupt:every=2; csv.load:err:after=3:times=1;exec.morsel:panic", 1)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(s.rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(s.rules))
	}
	r := s.rules[1]
	if r.Site != "csv.load" || r.Kind != Err || r.After != 3 || r.Times != 1 {
		t.Fatalf("rule 1 parsed as %+v", r.Rule)
	}
	if s.rules[0].Every != 2 || s.rules[0].Kind != Corrupt {
		t.Fatalf("rule 0 parsed as %+v", s.rules[0].Rule)
	}
	if s.rules[2].Kind != Panic {
		t.Fatalf("rule 2 parsed as %+v", s.rules[2].Rule)
	}
	for _, bad := range []string{"", "justasite", "x:nope", "x:err:after", "x:err:after=-1", "x:err:what=3"} {
		if _, err := ParseSpec(bad, 1); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", bad)
		}
	}
	if _, err := ParseSpec("x:latency:ms=5", 1); err != nil {
		t.Errorf("ParseSpec latency ms: %v", err)
	}
}
