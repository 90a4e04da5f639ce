package colv1

import (
	"encoding/binary"
	"fmt"
	"os"
)

// File is a columnar trace opened from disk: the embedded Reader
// streams the file block by block, and its SizeHint is exact from the
// start because Open reads the instruction total from the footer
// first. Close closes the descriptor; the embedded Reader must not be
// used after Close.
type File struct {
	*Reader
	f      *os.File
	closed bool
}

// Open opens path as a columnar trace for sequential reading.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	cr, err := NewReader(f)
	if err == nil {
		err = cr.readTotal(f)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &File{Reader: cr, f: f}, nil
}

// readTotal reads the trailer and the fixed part of the footer of f
// without moving the stream, validates them, and records the footer's
// instruction total. The streaming footer check later holds the footer
// it meets to this total.
func (cr *Reader) readTotal(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size < headerSize+16+trailerSize {
		return fmt.Errorf("%w: %d bytes is smaller than an empty trace", ErrTruncated, size)
	}
	var buf [16]byte
	if _, err := f.ReadAt(buf[:trailerSize], size-trailerSize); err != nil {
		return fmt.Errorf("colv1: reading trailer: %w", err)
	}
	if string(buf[8:12]) != trailerMagic {
		return fmt.Errorf("%w: missing trailer magic", ErrTruncated)
	}
	footOff := int64(binary.LittleEndian.Uint64(buf[0:8]))
	if footOff < headerSize || footOff > size-trailerSize-16 {
		return fmt.Errorf("%w: footer offset %d out of range", ErrCorrupt, footOff)
	}
	if _, err := f.ReadAt(buf[:], footOff); err != nil {
		return fmt.Errorf("colv1: reading footer: %w", err)
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != 0 {
		return fmt.Errorf("%w: footer marker is not zero", ErrCorrupt)
	}
	total := int64(binary.LittleEndian.Uint64(buf[4:12]))
	if total < 0 {
		return fmt.Errorf("%w: negative instruction count", ErrCorrupt)
	}
	cr.total = total
	return nil
}

// Close invalidates the Reader and closes the file.
func (cf *File) Close() error {
	if cf.closed {
		return nil
	}
	cf.closed = true
	cf.Reader.fail(fmt.Errorf("colv1: reader used after Close"))
	return cf.f.Close()
}
