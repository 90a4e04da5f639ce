// Package colv1 implements the columnar ("SMLC", version 1) on-disk
// trace format: a block-based structure-of-arrays encoding of the
// dynamic instruction stream, built so that trace-driven simulation is
// I/O-bound on nothing — ReadBatch decodes whole 4096-instruction
// blocks straight into the engine's batch buffers with zero
// per-instruction allocation, and the reader streams block by block so
// billion-instruction traces never need a full-file read.
//
// # File layout
//
//	header | block* | footer | trailer
//
// All fixed-width integers are little-endian.
//
//	header  (16 B): magic "SMLC" | u16 version | u16 blockLen | u64 reserved (0)
//	block:          u32 payloadLen | payload
//	payload:        u32 nInsts | u32 colLen[8] | col bytes, concatenated
//	footer:         u32 0 (marker) | u64 totalInsts | u32 nBlocks |
//	                nBlocks x { u64 blockOffset, u64 startInst }
//	trailer (12 B): u64 footerOffset | magic "SMLX"
//
// A block's payloadLen can never be 0 (empty blocks are not written),
// so the u32 0 marker unambiguously separates the last block from the
// footer. The fixed-size trailer at end of file locates the footer
// without a scan: Open reads the instruction total through it before
// streaming, and the reader checks that it points exactly at the
// marker it met and that nothing follows it.
//
// # Column encodings
//
// Each block stores the eight isa.Inst fields as eight independent
// columns, in this order and with these encodings:
//
//	pc    signed varint deltas vs the previous record (prev = 0 at block start)
//	addr  signed varint deltas vs the previous record (prev = 0 at block start)
//	op    run-length encoded: { value byte, uvarint runLen } pairs
//	size  run-length encoded
//	flags run-length encoded
//	dst   one raw byte per instruction
//	src1  one raw byte per instruction
//	src2  one raw byte per instruction
//
// Delta chains reset at every block boundary, so any block decodes
// independently of every other block, and the footer's seek index
// (block offset, first instruction) names a valid entry point for each
// one. The reader holds every index entry to the block it actually
// saw.
package colv1

import (
	"errors"
	"fmt"
)

const (
	// Magic identifies a columnar trace file; it is the first four
	// bytes of the stream and the only trace magic a reader accepts.
	Magic = "SMLC"
	// legacyMagic began traces in the removed record-at-a-time
	// format; a reader that meets it says how to replace the file
	// instead of calling it garbage.
	legacyMagic = "SMLT"
	// trailerMagic terminates the file so a reader can locate the
	// footer without scanning.
	trailerMagic = "SMLX"

	version = 1

	// DefaultBlockLen is the number of instructions per block. It
	// matches the epoch engine's batch length, so one ReadBatch call
	// from the engine decodes exactly one block.
	DefaultBlockLen = 4096
	// maxBlockLen bounds the self-described block length a reader will
	// accept, so a corrupt header cannot demand a giant decode state.
	maxBlockLen = 1 << 16

	headerSize  = 16
	trailerSize = 12
	numCols     = 8

	// Worst-case encoded bytes per instruction: two 10-byte varints
	// (pc, addr), three 2-byte RLE singleton runs, three raw bytes.
	maxBytesPerInst = 29
	// payloadFixed is the fixed prefix of a block payload: nInsts plus
	// the eight column lengths.
	payloadFixed = 4 + 4*numCols
)

// maxPayload bounds a block's payloadLen given the stream's block
// length, so corrupt or hostile length fields cannot force huge buffer
// allocations in the streaming reader.
func maxPayload(blockLen int) int {
	return payloadFixed + maxBytesPerInst*blockLen
}

// Errors returned by the reader. Corruption and truncation are
// distinguished so callers can tell "the file lies" from "the file was
// cut short"; both are terminal for the stream that hit them.
var (
	// ErrBadMagic means the input does not start with "SMLC".
	ErrBadMagic = errors.New("colv1: bad magic (not a columnar trace)")
	// errLegacy is the ErrBadMagic a legacy "SMLT" trace gets.
	errLegacy = fmt.Errorf("%w: the legacy record-at-a-time format was removed; regenerate the trace with tracegen", ErrBadMagic)
	// ErrBadVersion means the version field is unsupported.
	ErrBadVersion = errors.New("colv1: unsupported format version")
	// ErrTruncated means the stream ended before the footer and
	// trailer — a partial write or a cut-short copy.
	ErrTruncated = errors.New("colv1: truncated trace (missing footer)")
	// ErrCorrupt means a structural invariant of the format does not
	// hold: a length field out of range, a column that over- or
	// under-runs its section, an invalid opcode, or a footer that
	// disagrees with the blocks it indexes.
	ErrCorrupt = errors.New("colv1: corrupt trace")
)

// checkMagic validates the magic at the start of b. Input too short to
// hold a magic passes, so the caller's length check reports it as
// truncated.
func checkMagic(b []byte) error {
	if len(b) < len(Magic) {
		return nil
	}
	switch string(b[:len(Magic)]) {
	case Magic:
		return nil
	case legacyMagic:
		return errLegacy
	default:
		return ErrBadMagic
	}
}

// blockIndexEnt is one footer seek-index entry: the file offset of a
// block's payloadLen field and the stream-wide index of its first
// instruction.
type blockIndexEnt struct {
	offset    int64
	startInst int64
}
