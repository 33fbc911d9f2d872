//go:build !unix

package rawfile

import (
	"errors"
	"os"
)

// Without a unix mmap every image is a heap copy.
func mmap(*os.File, int64) ([]byte, error) { return nil, errors.ErrUnsupported }

func munmap([]byte) {}

// IdentityOf returns the identity a stat of a file gave: no device or inode
// here.
func IdentityOf(fi os.FileInfo) Identity {
	return Identity{Size: fi.Size(), ModTime: fi.ModTime().UnixNano()}
}
