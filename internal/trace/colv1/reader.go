package colv1

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"storemlp/internal/isa"
)

// Reader decodes a columnar trace sequentially from an io.Reader. It
// implements the trace package's Source and Sized contracts
// (structurally — this package only imports isa), so every trace
// consumer reads it directly.
//
// Blocks are read one at a time into one reusable buffer, so no
// seeking is needed and pipes work. Decode work happens lazily per
// ReadBatch call: the hot loop reads straight out of the block buffer
// into the caller's batch, allocating nothing per instruction. The
// stream ends at the footer, which the reader holds to account against
// the blocks it saw; end of input without a footer reports
// ErrTruncated.
type Reader struct {
	br *bufio.Reader

	blockLen  int
	total     int64 // total instructions (footer); -1 while unknown
	instPos   int64 // stream index of the next instruction to decode
	streamOff int64 // bytes consumed so far

	// index accumulates what the footer's seek index must claim about
	// each block, for the footer cross-check.
	index []blockIndexEnt

	blockBuf []byte // reusable payload buffer
	dec      blockDecoder
	done     bool
	err      error
	// scratch backs the fixed-size io.ReadFull reads (header, block
	// length prefix, footer fixed part, index entries, trailer): a
	// stack array passed through the io.Reader interface escapes, so
	// one heap allocation per block; a struct field costs nothing.
	scratch [16]byte
}

// NewReader validates the header of r and returns a sequential Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	cr := &Reader{br: br, total: -1, streamOff: headerSize}
	hdr := cr.scratch[:headerSize]
	if n, err := io.ReadFull(br, hdr); err != nil {
		if merr := checkMagic(hdr[:n]); merr != nil {
			return nil, merr
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: short header", ErrTruncated)
		}
		return nil, fmt.Errorf("colv1: reading header: %w", err)
	}
	if err := cr.parseHeader(hdr); err != nil {
		return nil, err
	}
	return cr, nil
}

func (cr *Reader) parseHeader(hdr []byte) error {
	if err := checkMagic(hdr); err != nil {
		return err
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != version {
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	bl := int(binary.LittleEndian.Uint16(hdr[6:8]))
	if bl < 1 || bl > maxBlockLen {
		return fmt.Errorf("%w: block length %d out of range", ErrCorrupt, bl)
	}
	cr.blockLen = bl
	return nil
}

// Err returns the first error encountered, if any. End of a complete
// trace is not an error.
func (cr *Reader) Err() error { return cr.err }

// SizeHint reports the remaining instruction count when known: from
// the start for a trace opened with Open, which reads the total from
// the footer up front, and otherwise only once the footer is reached.
func (cr *Reader) SizeHint() int64 {
	if cr.total < 0 {
		return -1
	}
	return cr.total - cr.instPos
}

// ReadBatch decodes up to len(dst) instructions into dst and returns
// the number decoded; 0 means end of stream or error (see Err). The
// per-block column cursors persist across calls, so callers may use
// any batch size — a dst of the block length decodes exactly one block
// per call with zero per-instruction allocation.
func (cr *Reader) ReadBatch(dst []isa.Inst) int {
	if cr.err != nil || cr.done || len(dst) == 0 {
		return 0
	}
	n := 0
	for n < len(dst) {
		if cr.dec.remaining() == 0 {
			if !cr.nextBlock() {
				break
			}
		}
		k, ok := cr.dec.decode(dst[n:])
		if !ok {
			cr.fail(fmt.Errorf("%w: malformed column data in block ending at inst %d", ErrCorrupt, cr.instPos))
			return 0
		}
		n += k
		cr.instPos += int64(k)
		if cr.dec.remaining() == 0 && !cr.dec.drained() {
			cr.fail(fmt.Errorf("%w: trailing bytes in block ending at inst %d", ErrCorrupt, cr.instPos))
			return 0
		}
	}
	return n
}

// fail records the stream's terminal error.
func (cr *Reader) fail(err error) {
	cr.err = err
	cr.done = true
}

// nextBlock loads the next block into the decoder. It returns false at
// end of stream or on error.
func (cr *Reader) nextBlock() bool {
	lenBuf := cr.scratch[:4]
	if _, err := io.ReadFull(cr.br, lenBuf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			cr.fail(ErrTruncated)
		} else {
			cr.fail(fmt.Errorf("colv1: reading block length: %w", err))
		}
		return false
	}
	blockOff := cr.streamOff
	cr.streamOff += 4
	payloadLen := int(binary.LittleEndian.Uint32(lenBuf))
	if payloadLen == 0 {
		// Footer marker: validate totals, swallow the index, check the
		// trailer, and finish.
		cr.readFooter(blockOff)
		return false
	}
	if payloadLen < payloadFixed || payloadLen > maxPayload(cr.blockLen) {
		cr.fail(fmt.Errorf("%w: block payload length %d out of range", ErrCorrupt, payloadLen))
		return false
	}
	if cap(cr.blockBuf) < payloadLen {
		cr.blockBuf = make([]byte, maxPayload(cr.blockLen))
	}
	buf := cr.blockBuf[:payloadLen]
	if _, err := io.ReadFull(cr.br, buf); err != nil {
		cr.fail(fmt.Errorf("%w: mid-block end of stream: %v", ErrTruncated, err))
		return false
	}
	cr.streamOff += int64(payloadLen)
	if err := cr.dec.load(buf, cr.blockLen); err != nil {
		cr.fail(err)
		return false
	}
	// Record what the footer's seek index must later claim about this
	// block; readFooter cross-checks entry by entry. Sized up front so
	// a long stream grows the index a few times, not per block.
	if cr.index == nil {
		cr.index = make([]blockIndexEnt, 0, 64)
	}
	cr.index = append(cr.index, blockIndexEnt{offset: blockOff, startInst: cr.instPos})
	return true
}

// readFooter consumes the footer and trailer whose zero marker sat at
// stream offset footOff, holding every field to what the stream
// actually held: the instruction total, each seek index entry, the
// trailer's footer offset, and the end of input right after the
// trailer.
func (cr *Reader) readFooter(footOff int64) {
	fixed := cr.scratch[:12]
	if _, err := io.ReadFull(cr.br, fixed); err != nil {
		cr.fail(fmt.Errorf("%w: cut short in footer: %v", ErrTruncated, err))
		return
	}
	total := int64(binary.LittleEndian.Uint64(fixed[0:8]))
	nBlocks := int64(binary.LittleEndian.Uint32(fixed[8:12]))
	if total != cr.instPos {
		cr.fail(fmt.Errorf("%w: footer declares %d instructions, stream held %d", ErrCorrupt, total, cr.instPos))
		return
	}
	if cr.total >= 0 && total != cr.total {
		cr.fail(fmt.Errorf("%w: footer declares %d instructions, trailer's footer said %d", ErrCorrupt, total, cr.total))
		return
	}
	if nBlocks != int64(len(cr.index)) {
		cr.fail(fmt.Errorf("%w: footer indexes %d blocks, stream held %d", ErrCorrupt, nBlocks, len(cr.index)))
		return
	}
	ent := cr.scratch[:16]
	for i := int64(0); i < nBlocks; i++ {
		if _, err := io.ReadFull(cr.br, ent); err != nil {
			cr.fail(fmt.Errorf("%w: cut short in seek index: %v", ErrTruncated, err))
			return
		}
		off := int64(binary.LittleEndian.Uint64(ent[0:8]))
		start := int64(binary.LittleEndian.Uint64(ent[8:16]))
		if got := cr.index[i]; off != got.offset || start != got.startInst {
			cr.fail(fmt.Errorf("%w: seek index entry %d is (%d,%d), block was at (%d,%d)",
				ErrCorrupt, i, off, start, got.offset, got.startInst))
			return
		}
	}
	trailer := cr.scratch[:trailerSize]
	if _, err := io.ReadFull(cr.br, trailer); err != nil {
		cr.fail(fmt.Errorf("%w: cut short in trailer: %v", ErrTruncated, err))
		return
	}
	if string(trailer[8:12]) != trailerMagic {
		cr.fail(fmt.Errorf("%w: bad trailer magic", ErrCorrupt))
		return
	}
	if off := int64(binary.LittleEndian.Uint64(trailer[0:8])); off != footOff {
		cr.fail(fmt.Errorf("%w: trailer points at offset %d, footer is at %d", ErrCorrupt, off, footOff))
		return
	}
	switch _, err := cr.br.ReadByte(); err {
	case io.EOF:
	case nil:
		cr.fail(fmt.Errorf("%w: trailing bytes after the trailer", ErrCorrupt))
		return
	default:
		cr.fail(fmt.Errorf("colv1: reading past the trailer: %w", err))
		return
	}
	cr.total = total
	cr.done = true
}

// blockDecoder holds the incremental decode state of one block: a
// cursor pair per column, the delta-chain accumulators, and the
// current run of each RLE column. It reads from the block's payload
// bytes in place.
type blockDecoder struct {
	buf []byte
	n   int // instructions in this block
	i   int // instructions decoded so far

	pcPos, pcEnd int
	adPos, adEnd int
	opPos, opEnd int
	szPos, szEnd int
	flPos, flEnd int
	dsPos        int
	s1Pos        int
	s2Pos        int
	dsEnd        int // shared length check uses explicit ends
	s1End        int
	s2End        int

	prevPC, prevAddr    uint64
	opVal, szVal, flVal byte
	opRun, szRun, flRun int
}

// remaining returns how many instructions of the loaded block are
// still undecoded.
func (d *blockDecoder) remaining() int { return d.n - d.i }

// drained reports whether every column cursor consumed its section
// exactly — anything less means the block payload lied about its
// column lengths.
func (d *blockDecoder) drained() bool {
	return d.pcPos == d.pcEnd && d.adPos == d.adEnd &&
		d.opPos == d.opEnd && d.szPos == d.szEnd && d.flPos == d.flEnd &&
		d.dsPos == d.dsEnd && d.s1Pos == d.s1End && d.s2Pos == d.s2End &&
		d.opRun == 0 && d.szRun == 0 && d.flRun == 0
}

// load points the decoder at one block payload (nInsts | colLen[8] |
// columns) and validates its structure.
func (d *blockDecoder) load(payload []byte, blockLen int) error {
	n := int(binary.LittleEndian.Uint32(payload[0:4]))
	if n < 1 || n > blockLen {
		return fmt.Errorf("%w: block instruction count %d out of range [1,%d]", ErrCorrupt, n, blockLen)
	}
	pos := payloadFixed
	var starts, ends [numCols]int
	for c := 0; c < numCols; c++ {
		l := int(binary.LittleEndian.Uint32(payload[4+4*c : 8+4*c]))
		if l < 0 || pos+l > len(payload) {
			return fmt.Errorf("%w: column %d length %d overruns block payload", ErrCorrupt, c, l)
		}
		starts[c], ends[c] = pos, pos+l
		pos += l
	}
	if pos != len(payload) {
		return fmt.Errorf("%w: block payload has %d trailing bytes", ErrCorrupt, len(payload)-pos)
	}
	// Raw register columns are one byte per instruction by
	// construction.
	for c := 5; c < 8; c++ {
		if ends[c]-starts[c] != n {
			return fmt.Errorf("%w: register column %d holds %d bytes for %d insts", ErrCorrupt, c, ends[c]-starts[c], n)
		}
	}
	*d = blockDecoder{
		buf: payload, n: n,
		pcPos: starts[0], pcEnd: ends[0],
		adPos: starts[1], adEnd: ends[1],
		opPos: starts[2], opEnd: ends[2],
		szPos: starts[3], szEnd: ends[3],
		flPos: starts[4], flEnd: ends[4],
		dsPos: starts[5], dsEnd: ends[5],
		s1Pos: starts[6], s1End: ends[6],
		s2Pos: starts[7], s2End: ends[7],
	}
	return nil
}

// decode writes up to len(dst) instructions into dst, advancing every
// column cursor in lockstep. It returns the count decoded and false if
// any column is malformed (varint overrun, run overrun, cursor past
// its section, invalid opcode). This is the trace pipeline's hot loop:
// it allocates nothing and touches only the block buffer and dst.
//
//storemlp:noalloc
func (d *blockDecoder) decode(dst []isa.Inst) (int, bool) {
	k := d.n - d.i
	if k > len(dst) {
		k = len(dst)
	}
	buf := d.buf
	for w := 0; w < k; w++ {
		// pc, addr: signed varint deltas.
		dpc, pos, ok := readVarint(buf, d.pcPos, d.pcEnd)
		if !ok {
			return 0, false
		}
		d.pcPos = pos
		d.prevPC += uint64(dpc)
		dad, pos, ok := readVarint(buf, d.adPos, d.adEnd)
		if !ok {
			return 0, false
		}
		d.adPos = pos
		d.prevAddr += uint64(dad)
		// op, size, flags: run-length pairs.
		if d.opRun == 0 {
			v, run, pos, ok := readRun(buf, d.opPos, d.opEnd)
			if !ok {
				return 0, false
			}
			d.opVal, d.opRun, d.opPos = v, run, pos
		}
		d.opRun--
		if d.szRun == 0 {
			v, run, pos, ok := readRun(buf, d.szPos, d.szEnd)
			if !ok {
				return 0, false
			}
			d.szVal, d.szRun, d.szPos = v, run, pos
		}
		d.szRun--
		if d.flRun == 0 {
			v, run, pos, ok := readRun(buf, d.flPos, d.flEnd)
			if !ok {
				return 0, false
			}
			d.flVal, d.flRun, d.flPos = v, run, pos
		}
		d.flRun--
		op := isa.Op(d.opVal)
		if !op.Valid() {
			return 0, false
		}
		// dst, src1, src2: raw bytes (section lengths pre-validated in
		// load, so plain indexing is in bounds).
		dst[w] = isa.Inst{
			PC:    d.prevPC,
			Addr:  d.prevAddr,
			Op:    op,
			Size:  d.szVal,
			Flags: isa.Flags(d.flVal),
			Dst:   isa.Reg(buf[d.dsPos]),
			Src1:  isa.Reg(buf[d.s1Pos]),
			Src2:  isa.Reg(buf[d.s2Pos]),
		}
		d.dsPos++
		d.s1Pos++
		d.s2Pos++
	}
	d.i += k
	return k, true
}

// readVarint decodes one signed varint from buf[pos:end], returning
// the value and the new cursor. It is binary.Varint restricted to a
// column section, with the allocation-free failure mode the hot loop
// needs.
//
//storemlp:noalloc
func readVarint(buf []byte, pos, end int) (int64, int, bool) {
	var ux uint64
	var shift uint
	for pos < end {
		b := buf[pos]
		pos++
		if b < 0x80 {
			if shift >= 63 && b > 1 {
				return 0, 0, false // overflows int64
			}
			ux |= uint64(b) << shift
			// Zigzag decode (matches encoding/binary's Varint).
			return int64(ux>>1) ^ -int64(ux&1), pos, true
		}
		ux |= uint64(b&0x7f) << shift
		shift += 7
		if shift > 63 {
			return 0, 0, false
		}
	}
	return 0, 0, false // section ended mid-varint
}

// readRun decodes one RLE pair (value byte, uvarint run length) from
// buf[pos:end]. Runs are capped at maxBlockLen: no legitimate run can
// exceed the block length, and the cap keeps a hostile run length from
// stalling the column-lockstep invariant checks.
//
//storemlp:noalloc
func readRun(buf []byte, pos, end int) (byte, int, int, bool) {
	if pos >= end {
		return 0, 0, 0, false
	}
	v := buf[pos]
	pos++
	var run uint64
	var shift uint
	for pos < end {
		b := buf[pos]
		pos++
		if b < 0x80 {
			run |= uint64(b) << shift
			if run < 1 || run > maxBlockLen {
				return 0, 0, 0, false
			}
			return v, int(run), pos, true
		}
		run |= uint64(b&0x7f) << shift
		shift += 7
		if shift > 21 { // runs are <= maxBlockLen, 3 varint bytes suffice
			return 0, 0, 0, false
		}
	}
	return 0, 0, 0, false
}
