//go:build linux

package atgis

import "syscall"

func madviseSequential(data []byte) error {
	return syscall.Madvise(data, syscall.MADV_SEQUENTIAL)
}

// madviseDontNeed drops the mapping's pages from the resident set; the
// file is read-only and shared, so a later access faults them back in
// from the page cache.
func madviseDontNeed(data []byte) error {
	return syscall.Madvise(data, syscall.MADV_DONTNEED)
}
