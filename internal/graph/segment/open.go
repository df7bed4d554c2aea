package segment

import (
	"fmt"
	"io"
	"os"
	"unsafe"
)

// File is an opened segment: validated content plus the resource that
// backs its section slices — a read-only file mapping on platforms with
// mmap, a page-aligned heap copy elsewhere. The Data sections alias
// that backing store, so they (and anything cast from them) are only
// valid until Close.
type File struct {
	Data   *Data
	Path   string
	Size   int64
	mapped []byte // non-nil iff the file is mmap'd
}

// Open maps (or, without mmap support, reads) the segment file at path
// and validates it with Parse. On success the returned File's sections
// serve straight off the page cache: nothing but the header page is
// necessarily resident, and cold pages fault in on first access.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < pageSize || size > int64(int(^uint(0)>>1)) {
		return nil, fmt.Errorf("segment: %s: implausible size %d", path, size)
	}
	data, mapped, err := mapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("segment: map %s: %w", path, err)
	}
	d, err := Parse(data)
	if err != nil {
		unmap(mapped)
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &File{Data: d, Path: path, Size: size, mapped: mapped}, nil
}

// Mapped reports whether the file is served from a memory mapping
// (false means the heap-read fallback).
func (f *File) Mapped() bool { return f.mapped != nil }

// Close releases the backing mapping. The caller must guarantee no
// section slice (or anything cast from one) is referenced afterwards —
// on mmap platforms a stale read faults the process.
func (f *File) Close() error {
	m := f.mapped
	f.mapped = nil
	f.Data = nil
	return unmap(m)
}

// readAligned is the no-mmap fallback: the whole file is copied into a
// page-cache-independent heap buffer whose base is 8-byte aligned (a
// []byte from make carries no alignment guarantee, and the graph layer
// casts sections to types with 8-byte alignment).
func readAligned(f *os.File, size int) ([]byte, error) {
	words := make([]uint64, (size+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
