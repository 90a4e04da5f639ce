// Source-ahead: the one producer stage every instruction stream goes
// through. When a spare core is free, a producer goroutine reads the
// stream's source (colv1 decode, or the workload generator and its
// rewrite chain) one batch ahead of the consumer — the epoch engine or
// the trace encoder — so the two halves of the work overlap. The
// consumer sees exactly the stream the source yields, in the same
// order, so results are bit-identical either way (DESIGN.md §14.5).
package trace

import (
	"runtime"
	"sync"
	"sync/atomic"

	"storemlp/internal/isa"
	"storemlp/internal/obs"
)

// aheadBatch is the size of one producer buffer: the engine's and the
// encoder's own batch length, so every consumer Fill is answered by
// exactly one hand-over.
const aheadBatch = 4096

// reserved counts the cores claimed by the streams in flight,
// process-wide: 2 for a stream running ahead, 1 for one running inline.
var reserved atomic.Int64

// claim applies the occupancy rule for one stream and returns the cores
// it claims: 2 when reserved + 2 <= GOMAXPROCS (so GOMAXPROCS > 1),
// meaning the stream runs ahead; 1 otherwise, meaning it runs inline.
// The check and the reservation are one CAS, so two streams starting
// together cannot both take the last spare core.
func claim() int64 {
	procs := int64(runtime.GOMAXPROCS(0))
	for {
		r := reserved.Load()
		if r+2 > procs {
			reserved.Add(1)
			return 1
		}
		if reserved.CompareAndSwap(r, r+2) {
			return 2
		}
	}
}

// Stage is the producer stage of one instruction stream. Inline, its
// ReadBatch reads the source directly. Ahead, two spare buffers
// circulate between a producer goroutine and the consumer: the producer
// takes a free buffer, fills it with Fill and posts it on ready; the
// consumer's ReadBatch copies it out and posts it back on free. A
// buffer posted with length 0 marks end of stream, so the channels end
// every stream empty of ready buffers and the stage is reused as is.
//
// Both channels have capacity 2, the number of buffers, so a send never
// blocks; the producer waits only for a free buffer and the consumer
// only for a ready one, and the two waits cannot coincide.
type Stage struct {
	cores int64  // cores this stream claimed: 2 ahead, 1 inline
	src   Source // the stream; read by the producer while ahead

	bufs  [2][]isa.Inst //storemlp:keep (contents overwritten by every fill)
	n     [2]int        // fill length of bufs[i]; written before i is posted on ready
	free  chan int      // buffers the producer may fill
	ready chan int      // filled buffers, in stream order
	halt  atomic.Bool   // the consumer stopped early; the producer posts end of stream
	wg    sync.WaitGroup
	loop  func() // s.produce, bound once so a launch allocates nothing

	// Producer span sink for one stream, set before the launch and
	// cleared by Stop after the join.
	rt     *obs.ReqTrace
	parent obs.SpanID

	// Consumer state: the buffer being copied out (-1 for none), the
	// copy position in it, and whether end of stream was received.
	cur, off int
	eos      bool
}

// stagePool is the process-wide free list of stages, so a warm stream
// allocates nothing: buffers, channels and the bound producer loop are
// reused.
type stagePool struct {
	mu   sync.Mutex
	free []*Stage // guarded by mu
}

var stages stagePool

func (p *stagePool) get() *Stage {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return s
	}
	return new(Stage)
}

func (p *stagePool) put(s *Stage) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// Start begins one stream over src and returns the stage to read it
// through. The occupancy rule decides how: when a spare core is
// unclaimed, a producer goroutine reads src one batch ahead; otherwise
// the stage reads src inline on the caller's goroutine. Results never
// depend on the choice. When rt is non-nil a producer records one
// decode span under parent. Every Start is paired with a Stop before
// src is touched again.
func Start(src Source, rt *obs.ReqTrace, parent obs.SpanID) *Stage {
	return start(src, claim(), rt, parent)
}

// StartPinned is Start with the choice made by the caller instead of
// the occupancy rule: the stream runs ahead when ahead is set and
// inline otherwise, and claims the cores that choice takes. Tests and
// benchmarks pin either path with it.
func StartPinned(src Source, ahead bool, rt *obs.ReqTrace, parent obs.SpanID) *Stage {
	cores := int64(1)
	if ahead {
		cores = 2
	}
	reserved.Add(cores)
	return start(src, cores, rt, parent)
}

func start(src Source, cores int64, rt *obs.ReqTrace, parent obs.SpanID) *Stage {
	s := stages.get()
	s.src, s.cores = src, cores
	if cores == 1 {
		return s
	}
	if s.loop == nil {
		s.free, s.ready, s.cur = make(chan int, 2), make(chan int, 2), -1
		for i := range s.bufs {
			s.bufs[i] = make([]isa.Inst, aheadBatch)
			s.free <- i
		}
		s.loop = s.produce
	}
	s.rt, s.parent = rt, parent
	s.cur, s.off, s.eos = -1, 0, false
	s.halt.Store(false)
	s.wg.Add(1)
	go s.loop()
	return s
}

// produce is the producer goroutine: fill free buffers in stream order
// until the source ends or the consumer halts, then post end of stream.
func (s *Stage) produce() {
	defer s.wg.Done()
	var begin, produced int64
	if s.rt != nil {
		begin = obs.Now()
	}
	for {
		i := <-s.free
		n := 0
		if !s.halt.Load() {
			n = Fill(s.src, s.bufs[i])
		}
		s.n[i] = n
		produced += int64(n)
		if n == 0 {
			s.rt.Complete(obs.StageDecode, s.parent, begin, produced)
			s.ready <- i
			return
		}
		s.ready <- i
	}
}

// ReadBatch implements Source for the consumer. Inline it reads the
// source; ahead it copies the oldest produced batch into dst and
// returns its buffer to the producer once drained. 0 means end of
// stream.
//
//storemlp:noalloc
func (s *Stage) ReadBatch(dst []isa.Inst) int {
	if s.cores == 1 {
		return s.src.ReadBatch(dst)
	}
	if s.cur < 0 {
		if s.eos {
			return 0
		}
		s.cur, s.off = <-s.ready, 0
		if s.n[s.cur] == 0 {
			s.eos = true
			s.release()
			return 0
		}
	}
	k := copy(dst, s.bufs[s.cur][s.off:s.n[s.cur]])
	s.off += k
	if s.off == s.n[s.cur] {
		s.release()
	}
	return k
}

// release hands the buffer being copied out back to the producer.
func (s *Stage) release() {
	s.free <- s.cur
	s.cur = -1
}

// Stop ends the stream: it asks a producer still running to halt,
// returns every buffer until end of stream arrives, and waits for the
// goroutine; then it releases the stream's cores and returns the stage
// to the free list. After Stop the source is no longer touched and the
// stage must not be used again.
func (s *Stage) Stop() {
	if s.cores == 2 {
		s.halt.Store(true)
		if s.cur >= 0 {
			s.release()
		}
		for !s.eos {
			i := <-s.ready
			s.eos = s.n[i] == 0
			s.free <- i
		}
		s.wg.Wait()
		s.rt = nil
	}
	reserved.Add(-s.cores)
	s.src, s.cores = nil, 0
	stages.put(s)
}
