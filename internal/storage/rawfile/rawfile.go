// Package rawfile serves a path-registered raw file's bytes to the engine: a
// read-only shared mapping of the file, so nothing is copied onto the Go heap
// and only the pages a query touches become resident. Empty and non-regular
// files, a failed mapping and non-unix builds fall back to a heap copy.
//
// A mapping is not a snapshot. An Image records the identity of the file it
// maps (size, modification time, device and inode), so a reader can tell
// when the file was rewritten, replaced or truncated underneath it, and that
// a fault on a page the file no longer has came from the mapping (Held.Lost).
// An Image is reference counted: the owner holds one reference and each
// reader another (Held), and the file is unmapped when the last one is
// released, never under a reader.
package rawfile

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"unsafe"

	"rawdb/internal/faults"
)

// Identity is what stat says about a file. Any change in it means the file is
// no longer the one an Image maps (within stat's resolution: a rewrite at the
// same size within one modification-time tick goes unseen).
type Identity struct {
	Size     int64
	ModTime  int64 // nanoseconds since the epoch
	Dev, Ino uint64
}

// Stat returns the identity of the file at path; the zero Identity with the
// error when it cannot be stat'ed.
func Stat(path string) (Identity, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return Identity{}, err
	}
	return IdentityOf(fi), nil
}

// An Image is a raw file's bytes.
type Image struct {
	// Data is the file's bytes, never nil (however short). They are
	// read-only: a mapped image faults on a write.
	Data []byte
	// id is the identity of the file Data was read from.
	id   Identity
	path string
	// mem is the mapping, nil for a heap copy; gauge, when non-nil, counts
	// the bytes mapped and not yet unmapped.
	mem   []byte
	gauge *atomic.Int64
	refs  atomic.Int32
}

// Map reads the file at path, holding the caller's reference. site names the
// fault-injection seam of the load (faults.Hit before the read,
// faults.ReadData on its bytes). A size the stat and the read disagree on
// means the file changed mid-read: Map fails, transiently, rather than serve a
// sheared image. mapped, when non-nil, counts the bytes the image maps.
func Map(path, site string, mapped *atomic.Int64) (*Image, error) {
	if err := faults.Hit(site); err != nil {
		return nil, fmt.Errorf("rawfile: load %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("rawfile: load %s: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("rawfile: load %s: %w", path, err)
	}
	im := &Image{id: IdentityOf(fi), path: path}
	im.refs.Store(1)
	var data []byte
	if fi.Mode().IsRegular() && fi.Size() > 0 {
		// A failed mapping is no failure: the heap copy below serves.
		if im.mem, err = mmap(f, fi.Size()); err == nil && mapped != nil {
			im.gauge = mapped
			mapped.Add(int64(len(im.mem)))
		}
		data = im.mem
	}
	if im.mem == nil {
		if data, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("rawfile: load %s: %w", path, err)
		}
	}
	data = faults.ReadData(site, data)
	if int64(len(data)) != fi.Size() {
		im.Release()
		return nil, fmt.Errorf("rawfile: load %s: short read: %d bytes for a %d-byte file",
			path, len(data), fi.Size())
	}
	im.Data = data
	return im, nil
}

// acquire adds a reader's reference. Only a holder of a reference may call
// it, so a released image is never revived.
func (im *Image) acquire() { im.refs.Add(1) }

// Release drops a reference. The last one unmaps the file: no reader may touch
// Data after releasing its reference.
func (im *Image) Release() {
	if im.refs.Add(-1) == 0 && im.mem != nil {
		munmap(im.mem)
		if im.gauge != nil {
			im.gauge.Add(-int64(len(im.mem)))
		}
	}
}

// Identity is the identity of the file Data was read from.
func (im *Image) Identity() Identity { return im.id }

// mapped reports whether Data is a mapping of the file, not a heap copy.
func (im *Image) mapped() bool { return im.mem != nil }

// Changed reports whether the file at the image's path is no longer the one
// Data was read from: rewritten, replaced, truncated or removed.
func (im *Image) Changed() bool {
	id, err := Stat(im.path)
	return err != nil || id != im.id
}

// contains reports whether addr, the address of a memory fault, lies in the
// image's mapping: the fault of a read past the end of a file truncated
// under it.
func (im *Image) contains(addr uintptr) bool {
	if len(im.mem) == 0 {
		return false
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(im.mem)))
	return addr >= base && addr-base < uintptr(len(im.mem))
}

// Held is the images one reader holds, by the names of what they back.
type Held []held

type held struct {
	name string
	im   *Image
}

// Hold adds a reference to im, if any, for the reader.
func (h *Held) Hold(name string, im *Image) {
	if im != nil {
		im.acquire()
		*h = append(*h, held{name, im})
	}
}

// Release drops the reader's references.
func (h *Held) Release() {
	for _, x := range *h {
		x.im.Release()
	}
	*h = nil
}

// Lost names the held image the reader lost: the one whose mapping holds the
// address of fault — a value recovered from a panic under
// debug.SetPanicOnFault, or an error wrapping one (nil: none) — or else one
// whose file changed (a heap copy too: what was built from it must not be
// kept under the new file's name). "" when the reader lost none.
func (h Held) Lost(fault any) string {
	if err, ok := fault.(error); ok {
		var f interface{ Addr() uintptr }
		if errors.As(err, &f) {
			for _, x := range h {
				if x.im.contains(f.Addr()) {
					return x.name
				}
			}
		}
	}
	for _, x := range h {
		if x.im.Changed() {
			return x.name
		}
	}
	return ""
}
