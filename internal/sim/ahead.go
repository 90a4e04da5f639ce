// Decode-ahead for trace-driven runs: a producer goroutine decodes the
// next instruction batch while the engine steps the current one, so on
// a host with a second core the trace decoder runs off the engine's
// critical path. The engine sees exactly the stream the inline path
// feeds it, in the same order and the same batch sizes, so statistics
// are bit-identical (DESIGN.md §14.5).
package sim

import (
	"sync"
	"sync/atomic"

	"storemlp/internal/isa"
	"storemlp/internal/obs"
	"storemlp/internal/trace"
)

// aheadBatch is the size of one decode-ahead buffer: the engine's own
// batch length, so every engine Fill is answered by exactly one
// hand-over.
const aheadBatch = 4096

// decodeAhead runs a trace source one batch ahead of the engine. Two
// spare buffers circulate between the producer and the consumer (the
// engine, through ReadBatch): the producer takes a free buffer, fills
// it with trace.Fill and posts it on ready; the consumer copies it into
// the engine's batch and posts it back on free. A buffer posted with
// length 0 marks end of stream, so the channels end every run empty of
// ready buffers and the struct is reused across runs as is.
//
// Both channels have capacity 2, the number of buffers, so a send never
// blocks; the producer waits only for a free buffer and the consumer
// only for a ready one, and the two waits cannot coincide.
type decodeAhead struct {
	bufs  [2][]isa.Inst //storemlp:keep (contents overwritten by every fill)
	n     [2]int        // fill length of bufs[i]; written before i is posted on ready
	free  chan int      // buffers the producer may fill
	ready chan int      // filled buffers, in stream order
	halt  atomic.Bool   // the consumer stopped early; the producer posts end of stream
	wg    sync.WaitGroup
	loop  func() // d.produce, bound once so a launch allocates nothing

	// Producer state for one run, set by start before the launch and
	// cleared by stop after the join.
	src    trace.Source
	rt     *obs.ReqTrace
	parent obs.SpanID

	// Consumer state: the buffer being copied out (-1 for none), the
	// copy position in it, and whether end of stream was received.
	cur, off int
	eos      bool
}

func newDecodeAhead() *decodeAhead {
	d := &decodeAhead{free: make(chan int, 2), ready: make(chan int, 2), cur: -1}
	for i := range d.bufs {
		d.bufs[i] = make([]isa.Inst, aheadBatch)
		d.free <- i
	}
	d.loop = d.produce
	return d
}

// start launches the producer over src. When rt is non-nil the
// producer records one decode span under parent. Every start is paired
// with a stop before src is touched again or d is reused.
func (d *decodeAhead) start(src trace.Source, rt *obs.ReqTrace, parent obs.SpanID) {
	d.src, d.rt, d.parent = src, rt, parent
	d.cur, d.off, d.eos = -1, 0, false
	d.halt.Store(false)
	d.wg.Add(1)
	go d.loop()
}

// produce is the producer goroutine: fill free buffers in stream order
// until the source ends or the consumer halts, then post end of stream.
func (d *decodeAhead) produce() {
	defer d.wg.Done()
	var begin, decoded int64
	if d.rt != nil {
		begin = obs.Now()
	}
	for {
		i := <-d.free
		n := 0
		if !d.halt.Load() {
			n = trace.Fill(d.src, d.bufs[i])
		}
		d.n[i] = n
		decoded += int64(n)
		if n == 0 {
			d.rt.Complete(obs.StageDecode, d.parent, begin, decoded)
			d.ready <- i
			return
		}
		d.ready <- i
	}
}

// ReadBatch implements trace.BatchSource for the engine: it copies the
// oldest decoded batch into dst and returns its buffer to the producer
// once drained. 0 means end of stream.
//
//storemlp:noalloc
func (d *decodeAhead) ReadBatch(dst []isa.Inst) int {
	if d.cur < 0 {
		if d.eos {
			return 0
		}
		d.cur, d.off = <-d.ready, 0
		if d.n[d.cur] == 0 {
			d.eos = true
			d.release()
			return 0
		}
	}
	k := copy(dst, d.bufs[d.cur][d.off:d.n[d.cur]])
	d.off += k
	if d.off == d.n[d.cur] {
		d.release()
	}
	return k
}

// Next implements trace.Source; the engine always reads through
// ReadBatch.
func (d *decodeAhead) Next() (isa.Inst, bool) {
	var one [1]isa.Inst
	if d.ReadBatch(one[:]) == 0 {
		return isa.Inst{}, false
	}
	return one[0], true
}

// release hands the buffer being copied out back to the producer.
func (d *decodeAhead) release() {
	d.free <- d.cur
	d.cur = -1
}

// stop ends the run and joins the producer: it asks a producer still
// decoding to halt, returns every buffer until end of stream arrives,
// and waits for the goroutine. After stop the source is no longer
// touched and d is ready for the next start.
func (d *decodeAhead) stop() {
	d.halt.Store(true)
	if d.cur >= 0 {
		d.release()
	}
	for !d.eos {
		i := <-d.ready
		d.eos = d.n[i] == 0
		d.free <- i
	}
	d.wg.Wait()
	d.src, d.rt = nil, nil
}
