package colv1

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"storemlp/internal/isa"
)

// Writer streams instructions into the columnar format. Instructions
// accumulate in a pending block; every DefaultBlockLen of them are
// transposed into columns and emitted as one block. Close flushes the
// final partial block and writes the footer and trailer — a trace
// without them is reported as truncated by the reader, so Close is not
// optional.
//
// The Writer buffers through bufio and reuses all per-block scratch, so
// writing a trace costs O(blocks) allocations regardless of length.
type Writer struct {
	w       *bufio.Writer
	off     int64 // bytes emitted so far, including the header
	count   int64 // instructions accepted so far
	pending []isa.Inst
	npend   int
	index   []blockIndexEnt
	cols    [numCols][]byte // per-column encode scratch, reused across blocks
	hdr     [payloadFixed + 4]byte
	closed  bool
	err     error
}

// NewWriter writes the format header to w and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	cw := &Writer{
		w:       bufio.NewWriterSize(w, 1<<16),
		pending: make([]isa.Inst, DefaultBlockLen),
	}
	var hdr [headerSize]byte
	copy(hdr[:4], Magic)
	binary.LittleEndian.PutUint16(hdr[4:6], version)
	binary.LittleEndian.PutUint16(hdr[6:8], DefaultBlockLen)
	// hdr[8:16] is reserved, zero.
	if _, err := cw.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	cw.off = headerSize
	return cw, nil
}

// WriteBatch appends a batch of instructions, of any length, to the
// trace; it is the Writer's one entry point.
func (cw *Writer) WriteBatch(ins []isa.Inst) error {
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		cw.err = fmt.Errorf("colv1: write after Close")
		return cw.err
	}
	for len(ins) > 0 {
		n := copy(cw.pending[cw.npend:], ins)
		cw.npend += n
		cw.count += int64(n)
		ins = ins[n:]
		if cw.npend == len(cw.pending) {
			if err := cw.flushBlock(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Count returns the number of instructions accepted so far.
func (cw *Writer) Count() int64 { return cw.count }

// Close flushes the pending partial block, writes the footer and
// trailer, and flushes the underlying buffer. It does not close the
// underlying writer. Calling Close more than once returns the first
// error state and writes nothing further.
func (cw *Writer) Close() error {
	if cw.err != nil {
		return cw.err
	}
	if cw.closed {
		return nil
	}
	cw.closed = true
	if cw.npend > 0 {
		if err := cw.flushBlock(); err != nil {
			return err
		}
	}
	footerOff := cw.off
	var scratch [16]byte
	// Footer marker (payloadLen 0) + totals.
	binary.LittleEndian.PutUint32(scratch[0:4], 0)
	binary.LittleEndian.PutUint64(scratch[4:12], uint64(cw.count))
	binary.LittleEndian.PutUint32(scratch[12:16], uint32(len(cw.index)))
	if err := cw.emit(scratch[:16]); err != nil {
		return err
	}
	for _, ent := range cw.index {
		binary.LittleEndian.PutUint64(scratch[0:8], uint64(ent.offset))
		binary.LittleEndian.PutUint64(scratch[8:16], uint64(ent.startInst))
		if err := cw.emit(scratch[:16]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(scratch[0:8], uint64(footerOff))
	copy(scratch[8:12], trailerMagic)
	if err := cw.emit(scratch[:trailerSize]); err != nil {
		return err
	}
	if err := cw.w.Flush(); err != nil {
		cw.err = err
		return err
	}
	return nil
}

// emit writes p and advances the byte offset the seek index is built
// from.
func (cw *Writer) emit(p []byte) error {
	n, err := cw.w.Write(p)
	cw.off += int64(n)
	if err != nil {
		cw.err = err
	}
	return err
}

// flushBlock transposes the pending instructions into columns and
// emits one block. One pass over the block writes all eight columns:
// the delta columns as zigzag varints against the previous record (the
// chain resets at the block boundary, so blocks decode independently),
// the run-length columns by closing a { value, uvarint run } pair
// whenever a field changes, and the register columns byte by byte.
func (cw *Writer) flushBlock() error {
	ins := cw.pending[:cw.npend]
	cw.index = append(cw.index, blockIndexEnt{
		offset:    cw.off,
		startInst: cw.count - int64(len(ins)),
	})

	n := len(ins) // > 0: a block is flushed only when it holds instructions
	pc, addr := cw.cols[0][:0], cw.cols[1][:0]
	op, size, flags := cw.cols[2][:0], cw.cols[3][:0], cw.cols[4][:0]
	dst, src1, src2 := resize(cw.cols[5], n), resize(cw.cols[6], n), resize(cw.cols[7], n)
	var prevPC, prevAddr uint64
	opV, sizeV, flagsV := ins[0].Op, ins[0].Size, ins[0].Flags
	var opRun, sizeRun, flagsRun uint64
	for i := range ins {
		in := &ins[i]
		pc = binary.AppendVarint(pc, int64(in.PC-prevPC))
		addr = binary.AppendVarint(addr, int64(in.Addr-prevAddr))
		prevPC, prevAddr = in.PC, in.Addr
		if in.Op != opV {
			op = appendRun(op, byte(opV), opRun)
			opV, opRun = in.Op, 0
		}
		opRun++
		if in.Size != sizeV {
			size = appendRun(size, sizeV, sizeRun)
			sizeV, sizeRun = in.Size, 0
		}
		sizeRun++
		if in.Flags != flagsV {
			flags = appendRun(flags, byte(flagsV), flagsRun)
			flagsV, flagsRun = in.Flags, 0
		}
		flagsRun++
		dst[i], src1[i], src2[i] = byte(in.Dst), byte(in.Src1), byte(in.Src2)
	}
	cw.cols = [numCols][]byte{pc, addr,
		appendRun(op, byte(opV), opRun),
		appendRun(size, sizeV, sizeRun),
		appendRun(flags, byte(flagsV), flagsRun),
		dst, src1, src2}

	payload := payloadFixed
	for _, c := range cw.cols {
		payload += len(c)
	}
	binary.LittleEndian.PutUint32(cw.hdr[0:4], uint32(payload))
	binary.LittleEndian.PutUint32(cw.hdr[4:8], uint32(len(ins)))
	for i, c := range cw.cols {
		binary.LittleEndian.PutUint32(cw.hdr[8+4*i:12+4*i], uint32(len(c)))
	}
	if err := cw.emit(cw.hdr[:]); err != nil {
		return err
	}
	for _, c := range cw.cols {
		if err := cw.emit(c); err != nil {
			return err
		}
	}
	cw.npend = 0
	return nil
}

// appendRun appends one run-length pair: the value byte, then the run
// length as a uvarint.
func appendRun(dst []byte, v byte, run uint64) []byte {
	return binary.AppendUvarint(append(dst, v), run)
}

// resize returns b with length n, reallocating only when it is too
// small.
func resize(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
