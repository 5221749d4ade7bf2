//go:build unix

package store

import (
	"os"
	"syscall"
)

// mmapAvailable reports that this platform can memory-map segments.
const mmapAvailable = true

// mmapOpen maps the file at path read-only. The mapping outlives the
// descriptor, which is closed before returning.
func mmapOpen(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore syncerr read-only handle; the mapping outlives the descriptor
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(st.Size())
	if size == 0 {
		return nil, nil
	}
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmap(b []byte) error {
	if b == nil {
		return nil
	}
	return syscall.Munmap(b)
}
