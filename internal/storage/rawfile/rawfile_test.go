package rawfile

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"rawdb/internal/faults"
)

func write(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestMapMissingFile(t *testing.T) {
	if _, err := Map(filepath.Join(t.TempDir(), "missing.csv"), faults.SiteCSVLoad, nil); err == nil {
		t.Fatal("expected an error for a missing file")
	}
}

// TestMapCountsAndUnmaps: a mapped image serves the file's bytes, the gauge
// counts them until the last reference goes, and a reader's reference keeps
// the mapping alive past the owner's release.
func TestMapCountsAndUnmaps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	const body = "1,2\n3,4\n"
	write(t, path, body)
	var mapped atomic.Int64
	im, err := Map(path, faults.SiteCSVLoad, &mapped)
	if err != nil {
		t.Fatal(err)
	}
	if string(im.Data) != body {
		t.Fatalf("Data = %q, want %q", im.Data, body)
	}
	if im.id.Size != int64(len(body)) {
		t.Fatalf("id.Size = %d, want %d", im.id.Size, len(body))
	}
	if !im.mapped() {
		if runtime.GOOS == "linux" {
			t.Fatal("a regular file was copied, not mapped")
		}
		t.Skip("no file mapping on this platform")
	}
	if got := mapped.Load(); got != int64(len(body)) {
		t.Fatalf("mapped bytes = %d, want %d", got, len(body))
	}
	im.acquire()   // a reader
	im.Release()   // the owner retires it
	_ = im.Data[0] // still mapped under the reader
	if got := mapped.Load(); got != int64(len(body)) {
		t.Fatalf("mapped bytes after the owner's release = %d, want %d", got, len(body))
	}
	im.Release() // the reader
	if got := mapped.Load(); got != 0 {
		t.Fatalf("mapped bytes after the last release = %d, want 0", got)
	}
}

func TestMapEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.csv")
	write(t, path, "")
	var mapped atomic.Int64
	im, err := Map(path, faults.SiteCSVLoad, &mapped)
	if err != nil {
		t.Fatal(err)
	}
	defer im.Release()
	if im.Data == nil || len(im.Data) != 0 || im.mapped() || mapped.Load() != 0 {
		t.Fatalf("empty file: Data %v (nil %v), mapped %v, gauge %d",
			im.Data, im.Data == nil, im.mapped(), mapped.Load())
	}
}

// TestMapFaultSeams: the load keeps its fault seams. A short read fails the
// load (and unmaps what it mapped); a corruption flips bits in a copy and
// leaves the mapped file alone.
func TestMapFaultSeams(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	const body = "10,20,30\n40,50,60\n"
	write(t, path, body)
	defer faults.Disable()

	var mapped atomic.Int64
	faults.Install(faults.NewSchedule(1, faults.Rule{Site: faults.SiteCSVLoad, Kind: faults.ShortRead, Times: 1}))
	if _, err := Map(path, faults.SiteCSVLoad, &mapped); err == nil {
		t.Fatal("a short read did not fail the load")
	}
	if got := mapped.Load(); got != 0 {
		t.Fatalf("a failed load left %d bytes mapped", got)
	}

	faults.Install(faults.NewSchedule(1, faults.Rule{Site: faults.SiteCSVLoad, Kind: faults.Corrupt, Times: 1}))
	im, err := Map(path, faults.SiteCSVLoad, &mapped)
	if err != nil {
		t.Fatal(err)
	}
	defer im.Release()
	if string(im.Data) == body {
		t.Fatal("Corrupt fired but the image is unchanged")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != body {
		t.Fatalf("the file changed under a corrupting load: %q, %v", got, err)
	}

	faults.Install(faults.NewSchedule(1, faults.Rule{Site: faults.SiteBinLoad, Kind: faults.Err, Times: 1}))
	if _, err := Map(path, faults.SiteBinLoad, &mapped); err == nil {
		t.Fatal("an injected error did not fail the load")
	}
}

// TestChanged: the identity tells a rewrite in place, a replacement by rename,
// a truncation and a removal from the file the image read.
func TestChanged(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	const body = "1,2\n3,4\n"
	for _, tc := range []struct {
		name   string
		mutate func()
	}{
		{"unchanged", func() {}},
		{"rewrite-same-size", func() {
			write(t, path, "5,6\n7,8\n")
			// Step the modification time past its resolution.
			later := time.Now().Add(time.Second)
			if err := os.Chtimes(path, later, later); err != nil {
				t.Fatal(err)
			}
		}},
		{"rename-over", func() {
			tmp := filepath.Join(dir, "new.csv")
			write(t, tmp, body)
			if err := os.Rename(tmp, path); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncate", func() {
			if err := os.Truncate(path, 2); err != nil {
				t.Fatal(err)
			}
		}},
		{"remove", func() {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		write(t, path, body)
		im, err := Map(path, faults.SiteCSVLoad, nil)
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate()
		if got, want := im.Changed(), tc.name != "unchanged"; got != want {
			t.Errorf("%s: Changed() = %v, want %v", tc.name, got, want)
		}
		im.Release()
	}
}

func TestContains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	write(t, path, "1,2\n3,4\n")
	im, err := Map(path, faults.SiteCSVLoad, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer im.Release()
	if !im.mapped() {
		t.Skip("no file mapping on this platform")
	}
	first := uintptr(unsafe.Pointer(&im.Data[0]))
	last := uintptr(unsafe.Pointer(&im.Data[len(im.Data)-1]))
	for _, tc := range []struct {
		addr uintptr
		want bool
	}{
		{first, true},
		{last, true},
		{last + 1, false},
		{first - 1, false},
	} {
		if got := im.contains(tc.addr); got != tc.want {
			t.Errorf("Contains(%#x) = %v, want %v", tc.addr, got, tc.want)
		}
	}
}

// fault stands in for the runtime error of a memory fault at addr.
type fault uintptr

func (f fault) Error() string { return "unexpected fault address" }
func (f fault) Addr() uintptr { return uintptr(f) }
func (f fault) RuntimeError() {}

// TestHeld: a reader's hold keeps an image mapped past its owner's release,
// names the image a fault inside its mapping or a changed file lost, and
// releases it.
func TestHeld(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.csv"), filepath.Join(dir, "b.csv")
	write(t, a, "1,2\n3,4\n")
	write(t, b, "5,6\n")
	var mapped atomic.Int64
	ima, err := Map(a, faults.SiteCSVLoad, &mapped)
	if err != nil {
		t.Fatal(err)
	}
	imb, err := Map(b, faults.SiteCSVLoad, &mapped)
	if err != nil {
		t.Fatal(err)
	}
	if !ima.mapped() {
		t.Skip("no file mapping on this platform")
	}
	var h Held
	h.Hold("a", ima)
	h.Hold("b", imb)
	h.Hold("none", nil)
	ima.Release() // the owners retire both
	imb.Release()
	if got := mapped.Load(); got != 12 {
		t.Fatalf("mapped bytes under the hold = %d, want 12", got)
	}
	if got := h.Lost(nil); got != "" {
		t.Fatalf("Lost(nil) = %q over unchanged files", got)
	}
	if got := h.Lost(errors.New("parse error")); got != "" {
		t.Fatalf("Lost(plain error) = %q over unchanged files", got)
	}
	inB := fault(uintptr(unsafe.Pointer(&imb.Data[1])))
	if got := h.Lost(inB); got != "b" {
		t.Fatalf("Lost(fault in b) = %q", got)
	}
	if got := h.Lost(fmt.Errorf("worker: %w", inB)); got != "b" {
		t.Fatalf("Lost(wrapped fault in b) = %q", got)
	}
	if err := os.Truncate(a, 2); err != nil {
		t.Fatal(err)
	}
	if got := h.Lost(nil); got != "a" {
		t.Fatalf("Lost(nil) = %q after a was truncated", got)
	}
	h.Release()
	if got := mapped.Load(); got != 0 || len(h) != 0 {
		t.Fatalf("after Release: %d bytes mapped, %d held", got, len(h))
	}
}
