package colv1

import (
	"fmt"
	"os"
)

// File is a columnar trace opened from disk through the random-access
// backend: on platforms with mmap support (linux) the file is
// memory-mapped, so the reader touches only the header, trailer,
// footer and the block pages it actually decodes — a billion-
// instruction trace costs no up-front read at all. Elsewhere the file
// is read into memory once. Close releases the mapping (or the
// buffer) and the descriptor; the embedded Reader must not be used
// after Close.
type File struct {
	*Reader
	data   []byte
	unmap  func([]byte) error
	closed bool
}

// Open opens path as a columnar trace for random-access reading.
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
	if size == 0 {
		return nil, fmt.Errorf("%w: %s is empty", ErrTruncated, path)
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("colv1: %s: %d bytes exceeds the addressable size", path, size)
	}
	data, unmap, err := mapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("colv1: mapping %s: %w", path, err)
	}
	cr, err := NewBytesReader(data)
	if err != nil {
		if unmap != nil {
			_ = unmap(data)
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &File{Reader: cr, data: data, unmap: unmap}, nil
}

// Close releases the mapping and invalidates the Reader.
func (cf *File) Close() error {
	if cf.closed {
		return nil
	}
	cf.closed = true
	cf.Reader.fail(fmt.Errorf("colv1: reader used after Close"))
	cf.Reader.data = nil
	if cf.unmap != nil {
		return cf.unmap(cf.data)
	}
	return nil
}
