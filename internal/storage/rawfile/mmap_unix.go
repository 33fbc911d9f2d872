//go:build unix

package rawfile

import (
	"os"
	"syscall"
)

func mmap(f *os.File, size int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmap(b []byte) { _ = syscall.Munmap(b) }

// IdentityOf returns the identity a stat of a file gave.
func IdentityOf(fi os.FileInfo) Identity {
	id := Identity{Size: fi.Size(), ModTime: fi.ModTime().UnixNano()}
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		id.Dev, id.Ino = uint64(st.Dev), uint64(st.Ino)
	}
	return id
}
