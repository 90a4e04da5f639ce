package colv1

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"storemlp/internal/isa"
)

// Reader decodes a columnar trace. It implements the trace package's
// Source, BatchSource and Sized contracts (structurally — this package
// only imports isa), so it drops into every consumer of the legacy
// codec unchanged.
//
// A Reader has one of two backends:
//
//   - streaming (NewReader): blocks are read sequentially from an
//     io.Reader into one reusable buffer; no seeking, suitable for
//     pipes. End of stream without a footer reports ErrTruncated.
//   - random-access (NewBytesReader): the whole file is available as a
//     byte slice (typically an mmap via Open); block payloads are
//     sliced in place with zero copying, and Seek jumps to any
//     instruction through the footer index.
//
// Decode work happens lazily per ReadBatch call: the hot loop reads
// straight out of the block buffer into the caller's batch, allocating
// nothing per instruction.
type Reader struct {
	// Exactly one of br (streaming) / data (random-access) is set.
	br   *bufio.Reader
	data []byte

	blockLen int
	total    int64 // total instructions (footer); -1 while unknown (streaming)
	instPos  int64 // stream index of the next instruction to decode

	// Seek index: parsed eagerly from the footer (random-access), or
	// accumulated block by block for the footer cross-check
	// (streaming).
	index     []blockIndexEnt
	nextBlk   int   // next index entry to load (random-access)
	footOff   int64 // offset of the footer marker (random-access)
	streamOff int64 // bytes consumed so far (streaming)
	seenFoot  bool  // streaming: footer reached

	blockBuf []byte // streaming: reusable payload buffer
	dec      blockDecoder
	done     bool
	err      error
	one      [1]isa.Inst
	skip     [256]isa.Inst // Seek decode-discard scratch
	// scratch backs the fixed-size io.ReadFull reads of the streaming
	// backend (header, block length prefix, footer fixed part, index
	// entries):
	// a stack array passed through the io.Reader interface escapes, so
	// one heap allocation per block; a struct field costs nothing.
	scratch [16]byte
}

// NewReader validates the header of r and returns a sequential Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	cr := &Reader{br: br, total: -1, streamOff: headerSize}
	hdr := cr.scratch[:headerSize]
	if _, err := io.ReadFull(br, hdr); err != nil {
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

// NewBytesReader returns a random-access Reader over a complete
// columnar trace held (or mapped) in memory. The footer and trailer
// are validated eagerly; block payloads are referenced in place and
// only touched when decoded.
func NewBytesReader(data []byte) (*Reader, error) {
	if len(data) < headerSize+16+trailerSize {
		return nil, fmt.Errorf("%w: %d bytes is smaller than an empty trace", ErrTruncated, len(data))
	}
	cr := &Reader{data: data}
	if err := cr.parseHeader(data[:headerSize]); err != nil {
		return nil, err
	}
	if err := cr.parseFooter(); err != nil {
		return nil, err
	}
	return cr, nil
}

func (cr *Reader) parseHeader(hdr []byte) error {
	if string(hdr[:4]) != Magic {
		return ErrBadMagic
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

// parseFooter locates and validates the footer through the trailer,
// building the seek index (random-access backend only).
func (cr *Reader) parseFooter() error {
	size := int64(len(cr.data))
	trailer := cr.data[size-trailerSize:]
	if string(trailer[8:12]) != trailerMagic {
		return fmt.Errorf("%w: missing trailer magic", ErrTruncated)
	}
	footOff := int64(binary.LittleEndian.Uint64(trailer[0:8]))
	if footOff < headerSize || footOff > size-trailerSize-16 {
		return fmt.Errorf("%w: footer offset %d out of range", ErrCorrupt, footOff)
	}
	foot := cr.data[footOff : size-trailerSize]
	if binary.LittleEndian.Uint32(foot[0:4]) != 0 {
		return fmt.Errorf("%w: footer marker is not zero", ErrCorrupt)
	}
	total := int64(binary.LittleEndian.Uint64(foot[4:12]))
	nBlocks := int64(binary.LittleEndian.Uint32(foot[12:16]))
	if total < 0 {
		return fmt.Errorf("%w: negative instruction count", ErrCorrupt)
	}
	if int64(len(foot)) != 16+16*nBlocks {
		return fmt.Errorf("%w: footer length %d does not match %d blocks", ErrCorrupt, len(foot), nBlocks)
	}
	if nBlocks == 0 && total != 0 {
		return fmt.Errorf("%w: %d instructions but no blocks", ErrCorrupt, total)
	}
	index := make([]blockIndexEnt, nBlocks)
	for i := range index {
		off := int64(binary.LittleEndian.Uint64(foot[16+16*i:]))
		start := int64(binary.LittleEndian.Uint64(foot[24+16*i:]))
		index[i] = blockIndexEnt{offset: off, startInst: start}
		if i == 0 {
			if off != headerSize || start != 0 {
				return fmt.Errorf("%w: first block at offset %d / inst %d", ErrCorrupt, off, start)
			}
		} else if off <= index[i-1].offset || start <= index[i-1].startInst {
			return fmt.Errorf("%w: seek index not strictly increasing at block %d", ErrCorrupt, i)
		}
		if off+4+payloadFixed > footOff {
			return fmt.Errorf("%w: block %d offset %d beyond footer", ErrCorrupt, i, off)
		}
		if start >= total {
			return fmt.Errorf("%w: block %d starts at inst %d of %d", ErrCorrupt, i, start, total)
		}
	}
	cr.total = total
	cr.index = index
	cr.footOff = footOff
	return nil
}

// blockInsts returns how many instructions block i must contain
// according to the seek index — the index is authoritative, and any
// block whose own nInsts disagrees is corrupt.
func (cr *Reader) blockInsts(i int) int64 {
	end := cr.total
	if i+1 < len(cr.index) {
		end = cr.index[i+1].startInst
	}
	return end - cr.index[i].startInst
}

// Err returns the first error encountered, if any. End of a complete
// trace is not an error.
func (cr *Reader) Err() error { return cr.err }

// SizeHint reports the remaining instruction count when known (always,
// for the random-access backend; never, for the streaming backend —
// the count lives in the footer, which a sequential reader has not
// seen yet).
func (cr *Reader) SizeHint() int64 {
	if cr.total < 0 {
		return -1
	}
	return cr.total - cr.instPos
}

// NumInsts returns the total instruction count, or -1 when unknown
// (streaming backend before the footer).
func (cr *Reader) NumInsts() int64 { return cr.total }

// Next implements the per-instruction Source contract.
func (cr *Reader) Next() (isa.Inst, bool) {
	if cr.ReadBatch(cr.one[:]) == 0 {
		return isa.Inst{}, false
	}
	return cr.one[0], true
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
	if cr.data != nil {
		return cr.nextBlockBytes()
	}
	return cr.nextBlockStream()
}

func (cr *Reader) nextBlockBytes() bool {
	if cr.nextBlk >= len(cr.index) {
		cr.done = true
		return false
	}
	i := cr.nextBlk
	off := cr.index[i].offset
	payloadLen := int64(binary.LittleEndian.Uint32(cr.data[off : off+4]))
	if payloadLen < payloadFixed || off+4+payloadLen > cr.footOff {
		cr.fail(fmt.Errorf("%w: block %d payload length %d out of range", ErrCorrupt, i, payloadLen))
		return false
	}
	payload := cr.data[off+4 : off+4+payloadLen]
	if err := cr.dec.load(payload, cr.blockLen); err != nil {
		cr.fail(fmt.Errorf("block %d: %w", i, err))
		return false
	}
	if int64(cr.dec.n) != cr.blockInsts(i) {
		cr.fail(fmt.Errorf("%w: block %d holds %d insts, seek index says %d", ErrCorrupt, i, cr.dec.n, cr.blockInsts(i)))
		return false
	}
	cr.nextBlk++
	return true
}

func (cr *Reader) nextBlockStream() bool {
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
		cr.readFooterStream()
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
	// block; readFooterStream cross-checks entry by entry. Sized up
	// front so a long stream grows the index a few times, not per block.
	if cr.index == nil {
		cr.index = make([]blockIndexEnt, 0, 64)
	}
	cr.index = append(cr.index, blockIndexEnt{offset: blockOff, startInst: cr.instPos})
	return true
}

// readFooterStream consumes the footer and trailer of a sequential
// stream, cross-checking the declared instruction total against what
// was actually decoded.
func (cr *Reader) readFooterStream() {
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
	// The seek index is for random access, but a sequential reader saw
	// every block go by and can hold the footer to account: each entry
	// must name exactly the offset and first-instruction index the
	// block actually had.
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
	cr.total = total
	cr.seenFoot = true
	cr.done = true
}

// SeekInst positions the reader at instruction index inst (0-based), using
// the footer seek index to touch only the containing block. It is
// available on the random-access backend only. Seeking to NumInsts()
// positions at end of stream; anything outside [0, NumInsts()] is an
// error.
func (cr *Reader) SeekInst(inst int64) error {
	if cr.data == nil {
		return fmt.Errorf("colv1: SeekInst requires a random-access reader (NewBytesReader or Open)")
	}
	if cr.err != nil {
		return cr.err
	}
	if inst < 0 || inst > cr.total {
		return fmt.Errorf("colv1: seek to %d outside trace of %d instructions", inst, cr.total)
	}
	cr.dec = blockDecoder{}
	cr.done = false
	if inst == cr.total {
		cr.instPos = inst
		cr.nextBlk = len(cr.index)
		cr.done = true
		return nil
	}
	// Last block whose startInst <= inst.
	b := sort.Search(len(cr.index), func(i int) bool { return cr.index[i].startInst > inst }) - 1
	cr.nextBlk = b
	cr.instPos = cr.index[b].startInst
	if !cr.nextBlockBytes() {
		return cr.err
	}
	// Decode-and-discard up to the target: delta and RLE cursors only
	// move forward, so a skip is a decode into scratch.
	for cr.instPos < inst {
		want := inst - cr.instPos
		if want > int64(len(cr.skip)) {
			want = int64(len(cr.skip))
		}
		k, ok := cr.dec.decode(cr.skip[:want])
		if !ok || k == 0 {
			cr.fail(fmt.Errorf("%w: malformed column data while seeking to inst %d", ErrCorrupt, inst))
			return cr.err
		}
		cr.instPos += int64(k)
	}
	return nil
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
