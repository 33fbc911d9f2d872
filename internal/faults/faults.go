// Package faults is a deterministic, schedule-driven failpoint registry for
// chaos testing the engine's degradation paths. Production code threads
// named sites through its file-access seams (raw-file loads, vault reads and
// writes, dataset stats, morsel workers); a test or an operator installs a
// Schedule that fires faults — injected errors, ENOENT, short reads, bit-flip
// corruption, torn writes, latency, panics — on chosen hits of chosen sites.
//
// The registry is process-global behind one atomic pointer: with no schedule
// installed every hook is a single atomic load and an immediate return, so
// the seams cost nothing measurable in production. Schedules are seeded, and
// rules trigger by per-site hit counts ("fail the 3rd vault read", "corrupt
// every 2nd entry"), so a given schedule over a serial workload reproduces
// byte-identically.
//
// Faults split into three classes, each consulted by a different hook so one
// seam pass advances each rule's counter exactly once:
//
//   - control faults (Err, NotExist, Latency, Panic, Hook) via Hit, placed
//     before the real operation;
//   - data faults (ShortRead, Corrupt) via ReadData, transforming the bytes a
//     read returned;
//   - write faults (Torn) via TornWrite, truncating the bytes about to be
//     published (simulating the post-crash torn entry an fsync-less rename
//     can leave behind).
package faults

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the effect a rule injects when it fires.
type Kind uint8

// Fault kinds.
const (
	// Err returns ErrInjected from the site.
	Err Kind = iota
	// NotExist returns an error wrapping fs.ErrNotExist, indistinguishable
	// (via errors.Is) from the backing file having vanished.
	NotExist
	// ShortRead truncates the bytes a read returned to a seeded fraction.
	ShortRead
	// Corrupt flips a few seeded bits in the bytes a read returned.
	Corrupt
	// Torn truncates the bytes about to be written, without an error: the
	// write "succeeds" but publishes a torn entry.
	Torn
	// Latency sleeps for the rule's Latency before the operation proceeds.
	Latency
	// Panic panics at the site (exercising the engine's recovery paths).
	Panic
	// Hook invokes the rule's Fn at the site — the deterministic stand-in
	// for "the file changed right here" in mid-query mutation tests.
	Hook
)

// String returns the spec label of the kind.
func (k Kind) String() string {
	switch k {
	case Err:
		return "err"
	case NotExist:
		return "notexist"
	case ShortRead:
		return "shortread"
	case Corrupt:
		return "corrupt"
	case Torn:
		return "torn"
	case Latency:
		return "latency"
	case Panic:
		return "panic"
	case Hook:
		return "hook"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// class buckets kinds by the hook that evaluates them, so each rule's hit
// counter advances exactly once per seam pass.
type class uint8

const (
	classControl class = iota // Hit
	classData                 // ReadData
	classWrite                // TornWrite
)

func (k Kind) class() class {
	switch k {
	case ShortRead, Corrupt:
		return classData
	case Torn:
		return classWrite
	default:
		return classControl
	}
}

// ErrInjected is the error Err-kind rules return (wrapped with site context
// by the seams).
var ErrInjected = errors.New("injected fault")

// Sites instrumented by the engine. A Rule's Site must match exactly.
const (
	SiteCSVLoad     = "csv.load"     // rawfile.Map of raw CSV files, incl. dataset partitions
	SiteJSONLoad    = "json.load"    // rawfile.Map of raw JSONL files
	SiteBinLoad     = "bin.load"     // rawfile.Map of fixed-width binary files
	SiteRootLoad    = "root.load"    // rawfile.Map of ROOT-like files
	SiteVaultRead   = "vault.read"   // vault.Store.ReadEntry (cached structures)
	SiteVaultWrite  = "vault.write"  // vault.Store.WriteEntry (structure publication)
	SiteDatasetStat = "dataset.stat" // dataset.Discover (manifest refresh)
	SiteExecMorsel  = "exec.morsel"  // each morsel pipeline on the worker pool
	SiteExecSerial  = "exec.serial"  // the serial execution phase of Engine.run
)

// Rule fires a fault on chosen hits of one site. Hits are counted per rule
// (within its class, see Kind); the rule fires on hit After+1, then every
// Every-th hit after that, at most Times times.
type Rule struct {
	Site string
	Kind Kind
	// After skips the first After hits (0 fires from the first hit).
	After int
	// Every fires on every Every-th eligible hit; 0 and 1 both mean every.
	Every int
	// Times caps the total number of fires; 0 means unlimited.
	Times int
	// Latency is the injected delay for Latency-kind rules.
	Latency time.Duration
	// Fn is the callback Hook-kind rules invoke at the seam.
	Fn func()
}

type ruleState struct {
	Rule
	hits  int
	fires int
}

// fire reports whether this hit triggers the rule, advancing its counters.
func (r *ruleState) fire() bool {
	r.hits++
	if r.hits <= r.After {
		return false
	}
	every := r.Every
	if every < 1 {
		every = 1
	}
	if (r.hits-r.After-1)%every != 0 {
		return false
	}
	if r.Times > 0 && r.fires >= r.Times {
		return false
	}
	r.fires++
	return true
}

// Schedule is one installed set of rules plus the seeded randomness data
// faults draw from. Safe for concurrent use.
type Schedule struct {
	mu    sync.Mutex
	rules []*ruleState
	rng   *rand.Rand
}

// NewSchedule builds a schedule from rules; seed drives the data-fault
// randomness (truncation points, corrupted offsets).
func NewSchedule(seed int64, rules ...Rule) *Schedule {
	s := &Schedule{rng: rand.New(rand.NewSource(seed))}
	for _, r := range rules {
		s.rules = append(s.rules, &ruleState{Rule: r})
	}
	return s
}

// Fires returns how many times each rule has fired, in rule order (tests
// assert a schedule actually exercised what it meant to).
func (s *Schedule) Fires() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.rules))
	for i, r := range s.rules {
		out[i] = r.fires
	}
	return out
}

var active atomic.Pointer[Schedule]

// observer receives a notification for every rule firing, outside the
// schedule lock. The engine installs one that relays firings into its
// lifecycle event log; nil means no one is listening.
var observer atomic.Pointer[func(site string, kind string)]

// SetObserver installs fn as the process-wide fault observer (nil removes
// it). fn is called once per rule fire with the site and the kind's spec
// label, after the schedule lock is released and before the fault's effect
// (error return, sleep, panic) reaches the seam. Like the schedule itself
// the observer is global; the last installer wins.
func SetObserver(fn func(site string, kind string)) {
	if fn == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&fn)
}

// notify reports each fired rule to the observer, if one is installed.
// Callers must not hold the schedule lock.
func notify(site string, kinds []Kind) {
	if len(kinds) == 0 {
		return
	}
	fn := observer.Load()
	if fn == nil {
		return
	}
	for _, k := range kinds {
		(*fn)(site, k.String())
	}
}

// Install makes s the process-wide active schedule (nil disables injection).
// Tests sharing the process must not overlap two installed schedules.
func Install(s *Schedule) { active.Store(s) }

// Disable removes the active schedule.
func Disable() { active.Store(nil) }

// Enabled reports whether a schedule is installed.
func Enabled() bool { return active.Load() != nil }

// Hit evaluates the control-class rules of site: injected errors, ENOENT,
// latency, panics and hooks. It returns nil immediately when no schedule is
// installed. Latency sleeps, Hook runs its callback, Panic panics; Err and
// NotExist return their error (to be wrapped with site context by the seam).
func Hit(site string) error {
	s := active.Load()
	if s == nil {
		return nil
	}
	return s.hit(site)
}

func (s *Schedule) hit(site string) error {
	var sleep time.Duration
	var hooks []func()
	var doPanic bool
	var err error
	var fired []Kind
	s.mu.Lock()
	for _, r := range s.rules {
		if r.Site != site || r.Kind.class() != classControl || !r.fire() {
			continue
		}
		fired = append(fired, r.Kind)
		switch r.Kind {
		case Err:
			if err == nil {
				err = fmt.Errorf("%w (site %s, hit %d)", ErrInjected, site, r.hits)
			}
		case NotExist:
			if err == nil {
				err = fmt.Errorf("injected fault (site %s, hit %d): %w", site, r.hits, fs.ErrNotExist)
			}
		case Latency:
			sleep += r.Latency
		case Panic:
			doPanic = true
		case Hook:
			if r.Fn != nil {
				hooks = append(hooks, r.Fn)
			}
		}
	}
	s.mu.Unlock()
	// Effects run outside the lock: hooks may touch files, sleeps may be
	// long, and a panic must not leave the schedule locked. The observer is
	// told first, so even a panicking fault is logged before it fires.
	notify(site, fired)
	for _, fn := range hooks {
		fn()
	}
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if doPanic {
		panic(fmt.Sprintf("faults: injected panic at %s", site))
	}
	return err
}

// ReadData evaluates the data-class rules of site against the bytes a read
// returned: ShortRead returns a truncated prefix, Corrupt flips a few bits in
// a copy. The input is never written: it may be a read-only mapping of the
// file, or a shared one whose writes would reach the file.
func ReadData(site string, data []byte) []byte {
	s := active.Load()
	if s == nil {
		return data
	}
	return s.readData(site, data)
}

func (s *Schedule) readData(site string, data []byte) []byte {
	var fired []Kind
	s.mu.Lock()
	for _, r := range s.rules {
		if r.Site != site || r.Kind.class() != classData || !r.fire() {
			continue
		}
		if len(data) == 0 {
			continue
		}
		fired = append(fired, r.Kind)
		switch r.Kind {
		case ShortRead:
			data = data[:s.rng.Intn(len(data))]
		case Corrupt:
			data = append([]byte(nil), data...)
			for i, n := 0, 1+s.rng.Intn(3); i < n; i++ {
				pos := s.rng.Intn(len(data))
				data[pos] ^= byte(1 << s.rng.Intn(8))
			}
		}
	}
	s.mu.Unlock()
	notify(site, fired)
	return data
}

// TornWrite evaluates the write-class rules of site against the bytes about
// to be published, returning a truncated prefix when a Torn rule fires. The
// write itself proceeds (and reports success): the torn entry is discovered
// by whoever reads it, exactly like a post-crash torn file would be.
func TornWrite(site string, data []byte) []byte {
	s := active.Load()
	if s == nil {
		return data
	}
	var fired []Kind
	s.mu.Lock()
	for _, r := range s.rules {
		if r.Site != site || r.Kind.class() != classWrite || !r.fire() {
			continue
		}
		if len(data) > 0 {
			fired = append(fired, r.Kind)
			data = data[:s.rng.Intn(len(data))]
		}
	}
	s.mu.Unlock()
	notify(site, fired)
	return data
}

// ParseSpec parses the command-line fault syntax into a schedule:
//
//	rule[;rule...]   with   rule = site:kind[:param=value...]
//
// kind is one of err, notexist, shortread, corrupt, torn, latency, panic;
// params are after=N, every=N, times=N and ms=N (latency milliseconds).
// Example: "vault.read:corrupt:every=2;csv.load:err:after=3:times=1".
func ParseSpec(spec string, seed int64) (*Schedule, error) {
	var rules []Rule
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		fields := strings.Split(rs, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("faults: rule %q: want site:kind[:param=value...]", rs)
		}
		r := Rule{Site: fields[0]}
		switch fields[1] {
		case "err":
			r.Kind = Err
		case "notexist":
			r.Kind = NotExist
		case "shortread":
			r.Kind = ShortRead
		case "corrupt":
			r.Kind = Corrupt
		case "torn":
			r.Kind = Torn
		case "latency":
			r.Kind = Latency
		case "panic":
			r.Kind = Panic
		default:
			return nil, fmt.Errorf("faults: rule %q: unknown kind %q", rs, fields[1])
		}
		for _, p := range fields[2:] {
			k, v, ok := strings.Cut(p, "=")
			if !ok {
				return nil, fmt.Errorf("faults: rule %q: parameter %q is not key=value", rs, p)
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faults: rule %q: parameter %q wants a non-negative integer", rs, p)
			}
			switch k {
			case "after":
				r.After = n
			case "every":
				r.Every = n
			case "times":
				r.Times = n
			case "ms":
				r.Latency = time.Duration(n) * time.Millisecond
			default:
				return nil, fmt.Errorf("faults: rule %q: unknown parameter %q", rs, k)
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faults: spec %q contains no rules", spec)
	}
	return NewSchedule(seed, rules...), nil
}
