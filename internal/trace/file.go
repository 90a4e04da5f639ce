package trace

import (
	"io"

	"storemlp/internal/isa"
	"storemlp/internal/obs"
	"storemlp/internal/trace/colv1"
)

// Traces on disk have one format, the columnar "SMLC" block codec of
// internal/trace/colv1: WriteAll writes it, colv1.NewReader streams it
// from any io.Reader, and OpenFile streams it from a file.

// FileSource is what a trace reader hands back: an instruction source
// with a terminal-error accessor — decoding problems end the stream,
// and Err distinguishes a clean end from a corrupt or truncated one.
type FileSource interface {
	Source
	Sized
	Err() error
}

// OpenFile opens path as a trace. The file is read sequentially, one
// block at a time, and its instruction count is known before the first
// read. The returned closer closes the file and must be closed after
// the source is drained.
func OpenFile(path string) (FileSource, io.Closer, error) {
	cf, err := colv1.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return cf.Reader, cf, nil
}

// WriteAll writes every instruction from src into w as a trace and
// returns the count written. It pulls whole blocks through Fill, so
// encoding costs O(blocks) allocations, and reads src through the
// producer stage (Start): with a spare core the source runs one block
// ahead of the encoder. The stage is stopped before WriteAll returns on
// every path, so src is not touched afterwards.
func WriteAll(w io.Writer, src Source) (int64, error) {
	cw, err := colv1.NewWriter(w)
	if err != nil {
		return 0, err
	}
	st := Start(src, nil, obs.NoSpan)
	defer st.Stop()
	buf := make([]isa.Inst, colv1.DefaultBlockLen)
	for {
		n := Fill(st, buf)
		if n == 0 {
			break
		}
		if err := cw.WriteBatch(buf[:n]); err != nil {
			return cw.Count(), err
		}
	}
	return cw.Count(), cw.Close()
}
