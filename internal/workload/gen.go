package workload

import (
	"math"
	"math/rand"

	"storemlp/internal/isa"
)

// Generator synthesizes an infinite, deterministic instruction stream
// for one workload. It implements trace.Source; Reset rewinds to the
// beginning of the identical stream, which is how every
// multi-configuration figure feeds the same trace to each configuration.
type Generator struct {
	p   Params     //storemlp:keep (calibration; Reset rewinds the stream, it does not recalibrate)
	rng randSource // every draw of the stream
	exp *rand.Rand //storemlp:keep (stateless wrapper over &rng for math/rand's ExpFloat64)

	// Emission queue for multi-instruction groups (critical sections,
	// bursts).
	queue []isa.Inst
	qHead int

	// Program counter state: a sweep cursor through the hot code region,
	// with excursions onto cold code lines that resume the sweep where
	// it left off.
	pc       uint64
	coldPC   uint64
	coldLeft int // instructions remaining on a cold code line

	// Scheduled-event countdowns, in instructions.
	nextLock     int64
	nextMembar   int64
	nextMispred  int64
	nextColdCode int64

	// Per-draw probabilities derived from Params, as thresholds:
	// rng.unit() < t holds exactly when math/rand's Float64() < p.
	tStore, tLoad, tBranch int64 // op mix, cumulative: store, +load, +branch
	tScatterBurst          int64 // per store: start a scattered miss burst
	tPreBurst              int64 // per lock: emit a pre-acquire miss burst
	tLoadBurst             int64 // per load: start a load miss burst
	tDepLoad               int64 // per missing load: depend on the last missing load

	// Burst state. Store bursts advance in sub-line steps of
	// 64/StoresPerLine bytes: the first store to each line misses, the
	// rest are coalescing fodder.
	storeBurstLeft int
	storeBurstAddr uint64
	storeBurstStep uint64
	storeBurstShrd bool
	loadBurstLeft  int
	loadBurstAddr  uint64

	// Cyclic sweep cursors for the store churn regions: private data is
	// "repeatedly brought into the L2 cache, modified and then evicted"
	// (§3.3.3), so store misses revisit earlier lines once the sweep
	// wraps — by which time the lines have been evicted, which is
	// exactly the reuse pattern the SMAC exploits.
	storeCursor  uint64
	sharedCursor uint64

	// Dependence state.
	lastLoadDst isa.Reg
	lastMissDst isa.Reg
	regRR       uint8

	// Branch outcome state (see branchTaken).
	altBranch bool
}

// queueCap is the emission queue's initial capacity: a critical section
// (critBodyLen+2) plus a typical pre-lock store burst, so a generator
// does not regrow the queue from nil. Bursts are geometric, so a long
// one still grows it with append.
const queueCap = 64

// NewGenerator builds a generator; it panics on invalid parameters
// (calibrations are compile-time constants in this package).
func NewGenerator(p Params) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{p: p, queue: make([]isa.Inst, 0, queueCap)}
	g.exp = rand.New(&g.rng)
	g.Reset()
	return g
}

// Params returns the generator's calibration.
func (g *Generator) Params() Params { return g.p }

// Reset rewinds the generator to the start of its deterministic stream.
func (g *Generator) Reset() {
	p := g.p
	g.rng = newRandSource(p.Seed)
	g.queue = g.queue[:0]
	g.qHead = 0
	g.pc = g.p.AddrOffset + hotCodeBase
	g.coldPC = 0
	g.coldLeft = 0
	g.storeBurstLeft = 0
	g.storeBurstAddr = 0
	g.storeBurstShrd = false
	g.loadBurstLeft = 0
	g.loadBurstAddr = 0
	g.lastLoadDst = 0
	g.lastMissDst = 0
	g.regRR = 0
	g.altBranch = false

	pStore := p.StorePer100 / 100
	pLoad := p.LoadPer100 / 100
	pBranch := p.BranchPer100 / 100
	g.tStore = threshold(pStore)
	g.tLoad = threshold(pStore + pLoad)
	g.tBranch = threshold(pStore + pLoad + pBranch)
	g.tDepLoad = threshold(p.DepLoadFrac)

	g.storeBurstStep = lineBytes / uint64(g.storesPerLine())

	scatter, preLock, loadBurst := burstProbs(p)
	g.tScatterBurst = threshold(scatter)
	g.tPreBurst = threshold(preLock)
	g.tLoadBurst = threshold(loadBurst)

	g.storeCursor = 0
	g.sharedCursor = 0
	g.nextLock = g.interval(p.LocksPer1000)
	g.nextMembar = g.interval(p.MembarPer1000)
	g.nextMispred = g.interval(p.MispredPer1000)
	if p.InstMissPer100 > 0 {
		g.nextColdCode = g.interval(p.InstMissPer100 * 10)
	} else {
		g.nextColdCode = -1
	}
}

// burstProbs derives the miss-burst probabilities from p's rates:
// per store, start a scattered store-miss burst; per lock, emit a
// pre-acquire burst (PreLockFrac of the store bursts, capped at one
// per lock); per load, start a load-miss burst.
func burstProbs(p Params) (scatter, preLock, loadBurst float64) {
	storesPer1000 := p.StorePer100 * 10
	loadsPer1000 := p.LoadPer100 * 10
	burstsPer1000 := p.StoreMissPer100 * 10 / p.StoreBurstMean
	if p.LocksPer1000 > 0 {
		preLock = p.PreLockFrac * burstsPer1000 / p.LocksPer1000
		if preLock > 1 {
			preLock = 1
		}
	}
	scatterPer1000 := burstsPer1000 - preLock*p.LocksPer1000
	if scatterPer1000 < 0 {
		scatterPer1000 = 0
	}
	return scatterPer1000 / storesPer1000, preLock,
		p.LoadMissPer100 * 10 / p.LoadBurstMean / loadsPer1000
}

// interval samples an exponential gap (in instructions) for an event
// rate given per 1000 instructions; -1 means "never".
func (g *Generator) interval(per1000 float64) int64 {
	if per1000 <= 0 {
		return -1
	}
	gap := int64(g.exp.ExpFloat64() * 1000 / per1000)
	if gap < 1 {
		gap = 1
	}
	return gap
}

// geometric samples a burst length with the given mean (>= 1).
func (g *Generator) geometric(mean float64) int {
	n := 1
	p := 1 - 1/mean
	for g.rng.Float64() < p && n < 32 {
		n++
	}
	return n
}

// branchTaken produces per-branch-PC outcome behaviour: most branches
// are strongly biased, a slice alternate, and a few are data-dependent
// noise. The engine takes mispredictions from FlagMispredict and never
// reads the outcome; the draws stay because the stream is pinned.
func (g *Generator) branchTaken(pc uint64) bool {
	switch (pc >> 2) % 8 {
	case 6:
		return g.rng.unit() < tNotTaken
	case 7:
		g.altBranch = !g.altBranch // alternating loop-exit style
		return g.altBranch
	default:
		return g.rng.unit() < tTaken
	}
}

// Thresholds of the fixed per-instruction probabilities (see
// Generator.tStore).
var (
	tNotTaken = threshold(0.02) // strongly not-taken branch
	tTaken    = threshold(0.98) // strongly taken branch
	tALUDep   = threshold(0.3)  // ALU op reads the last load's result
)

func (g *Generator) nextReg() isa.Reg {
	g.regRR++
	return isa.Reg(8 + g.regRR%32)
}

// nextPC advances the instruction address: sequentially within the
// current (hot or cold) code line, returning to the hot region sweep
// when a cold excursion ends. The hot sweep wraps within hotCodeSize so
// the code footprint fits the L2 but overflows the L1I.
func (g *Generator) nextPC() uint64 {
	if g.coldLeft > 0 {
		g.coldLeft--
		g.coldPC += 4
		return g.coldPC
	}
	g.pc += 4
	if g.pc >= g.p.AddrOffset+hotCodeBase+hotCodeSize || g.pc < g.p.AddrOffset+hotCodeBase {
		g.pc = g.p.AddrOffset + hotCodeBase
	}
	return g.pc
}

func (g *Generator) hotLine() uint64 {
	return g.p.AddrOffset + hotDataBase + uint64(g.rng.Intn(hotDataSize/lineBytes))*lineBytes
}

func (g *Generator) churnLine(base uint64, size int64) uint64 {
	return g.p.AddrOffset + base + uint64(g.rng.Int63n(size/lineBytes))*lineBytes
}

// next produces the stream one instruction at a time; ReadBatch takes
// it at queue drains and event boundaries. The stream is infinite.
func (g *Generator) next() isa.Inst {
	if g.qHead < len(g.queue) {
		in := g.queue[g.qHead]
		g.qHead++
		if g.qHead == len(g.queue) {
			g.queue = g.queue[:0]
			g.qHead = 0
		}
		g.tick()
		return in
	}

	// Scheduled multi-instruction events.
	if g.nextLock == 0 {
		g.nextLock = g.interval(g.p.LocksPer1000)
		g.emitCriticalSection()
		return g.next()
	}
	if g.nextMembar == 0 {
		g.nextMembar = g.interval(g.p.MembarPer1000)
		g.push(isa.Inst{Op: isa.OpMembar, PC: g.nextPC()})
		return g.next()
	}
	if g.nextMispred == 0 {
		g.nextMispred = g.interval(g.p.MispredPer1000)
		in := isa.Inst{Op: isa.OpBranch, PC: g.nextPC(), Src1: g.lastLoadDst, Flags: isa.FlagMispredict}
		// A hard-to-predict branch with a random direction. Nothing
		// reads the direction; the draw stays because the stream is
		// pinned (see the ROADMAP's event-gap generator item).
		if g.rng.Float64() < 0.5 {
			in.Flags |= isa.FlagTaken
		}
		g.push(in)
		return g.next()
	}
	if g.nextColdCode == 0 {
		g.nextColdCode = g.interval(g.p.InstMissPer100 * 10)
		// Jump to a fresh-ish cold code line and execute a few
		// instructions there: one off-chip instruction fetch. The hot
		// sweep resumes where it left off afterwards.
		g.coldPC = g.churnLine(coldCodeBase, g.p.CodeWSBytes) - 4
		g.coldLeft = 4 + g.rng.Intn(8)
	}

	in := g.emitPlain()
	g.tick()
	return in
}

// ReadBatch implements trace.Source, producing the exact stream next
// produces — same event ordering, same rand draws — with the
// per-instruction work hoisted: while the emission queue is empty and
// no scheduled event is due for k instructions, it emits k background
// instructions straight into dst and retires k from every countdown in
// one step. emitPlain never reads the countdowns, so a run of plain
// emissions followed by one bulk decrement is indistinguishable from
// the tick-per-instruction path.
func (g *Generator) ReadBatch(dst []isa.Inst) int {
	n := 0
	for n < len(dst) {
		if g.qHead < len(g.queue) ||
			g.nextLock == 0 || g.nextMembar == 0 ||
			g.nextMispred == 0 || g.nextColdCode == 0 {
			// Queue drain or an event boundary: take the general path
			// one instruction at a time until the stream is plain again.
			dst[n] = g.next()
			n++
			continue
		}
		k := int64(len(dst) - n)
		if g.nextLock > 0 && g.nextLock < k {
			k = g.nextLock
		}
		if g.nextMembar > 0 && g.nextMembar < k {
			k = g.nextMembar
		}
		if g.nextMispred > 0 && g.nextMispred < k {
			k = g.nextMispred
		}
		if g.nextColdCode > 0 && g.nextColdCode < k {
			k = g.nextColdCode
		}
		// Mirror of emitPlain with the dispatch expanded in place — the
		// rand draws, register rotation and PC advance happen in exactly
		// the same order — so the majority ALU/branch cases build their
		// Inst straight into dst with no call. Keep in sync with
		// emitPlain.
		for i := int64(0); i < k; i++ {
			switch r := g.rng.unit(); {
			case r < g.tStore:
				dst[n] = g.emitStore()
			case r < g.tLoad:
				dst[n] = g.emitLoad()
			case r < g.tBranch:
				in := isa.Inst{Op: isa.OpBranch, PC: g.nextPC(), Src1: g.lastLoadDst}
				if g.branchTaken(in.PC) {
					in.Flags |= isa.FlagTaken
				}
				dst[n] = in
			default:
				d := g.nextReg()
				src := isa.Reg(0)
				if g.rng.unit() < tALUDep {
					src = g.lastLoadDst
				}
				dst[n] = isa.Inst{Op: isa.OpALU, PC: g.nextPC(), Dst: d, Src1: src}
			}
			n++
		}
		if g.nextLock > 0 {
			g.nextLock -= k
		}
		if g.nextMembar > 0 {
			g.nextMembar -= k
		}
		if g.nextMispred > 0 {
			g.nextMispred -= k
		}
		if g.nextColdCode > 0 {
			g.nextColdCode -= k
		}
	}
	return n
}

// SizeHint implements trace.Sized. The stream is infinite; reporting a
// huge hint lets trace.Limit report its budget as the exact count.
func (g *Generator) SizeHint() int64 { return math.MaxInt64 }

// tick advances the scheduled-event countdowns by one instruction.
func (g *Generator) tick() {
	if g.nextLock > 0 {
		g.nextLock--
	}
	if g.nextMembar > 0 {
		g.nextMembar--
	}
	if g.nextMispred > 0 {
		g.nextMispred--
	}
	if g.nextColdCode > 0 {
		g.nextColdCode--
	}
}

func (g *Generator) push(ins ...isa.Inst) {
	g.queue = append(g.queue, ins...)
}

// emitPlain produces one instruction of the background mix.
func (g *Generator) emitPlain() isa.Inst {
	switch r := g.rng.unit(); {
	case r < g.tStore:
		return g.emitStore()
	case r < g.tLoad:
		return g.emitLoad()
	case r < g.tBranch:
		in := isa.Inst{Op: isa.OpBranch, PC: g.nextPC(), Src1: g.lastLoadDst}
		if g.branchTaken(in.PC) {
			in.Flags |= isa.FlagTaken
		}
		return in
	default:
		dst := g.nextReg()
		src := isa.Reg(0)
		if g.rng.unit() < tALUDep {
			src = g.lastLoadDst
		}
		return isa.Inst{Op: isa.OpALU, PC: g.nextPC(), Dst: dst, Src1: src}
	}
}

func (g *Generator) emitStore() isa.Inst {
	in := isa.Inst{Op: isa.OpStore, PC: g.nextPC(), Size: 8, Src1: g.nextReg()}
	switch {
	case g.storeBurstLeft > 0:
		g.emitBurstStore(&in)
	case g.rng.unit() < g.tScatterBurst:
		g.startStoreBurst()
		g.emitBurstStore(&in)
	default:
		in.Addr = g.hotLine() + uint64(g.rng.Intn(8))*8
	}
	return in
}

func (g *Generator) emitBurstStore(in *isa.Inst) {
	g.storeBurstLeft--
	in.Addr = g.storeBurstAddr
	g.storeBurstAddr += g.storeBurstStep
	if g.storeBurstShrd {
		in.Flags |= isa.FlagShared
	}
}

func (g *Generator) storesPerLine() int {
	if g.p.StoresPerLine < 1 {
		return 1
	}
	return g.p.StoresPerLine
}

func (g *Generator) startStoreBurst() {
	lines := g.geometric(g.p.StoreBurstMean)
	g.storeBurstLeft = lines * g.storesPerLine()
	g.storeBurstShrd = g.rng.Float64() < g.p.SharedStoreFrac
	g.storeBurstAddr = g.nextChurnBurst(g.storeBurstShrd, lines)
}

// nextChurnBurst returns the base line of the next store-miss burst,
// advancing the cyclic sweep cursor of the private or shared churn
// region by the burst footprint.
func (g *Generator) nextChurnBurst(shared bool, lines int) uint64 {
	span := uint64(lines) * lineBytes
	if shared {
		base := g.p.AddrOffset + sharedWSBase + g.sharedCursor
		g.sharedCursor += span
		if g.sharedCursor >= uint64(g.p.SharedWSBytes) {
			g.sharedCursor = 0
		}
		return base
	}
	base := g.p.AddrOffset + storeWSBase + g.storeCursor
	g.storeCursor += span
	if g.storeCursor >= uint64(g.p.StoreWSBytes) {
		g.storeCursor = 0
	}
	return base
}

func (g *Generator) emitLoad() isa.Inst {
	in := isa.Inst{Op: isa.OpLoad, PC: g.nextPC(), Size: 8, Dst: g.nextReg()}
	miss := false
	switch {
	case g.loadBurstLeft > 0:
		g.loadBurstLeft--
		in.Addr = g.loadBurstAddr
		g.loadBurstAddr += lineBytes
		miss = true
	case g.rng.unit() < g.tLoadBurst:
		g.loadBurstLeft = g.geometric(g.p.LoadBurstMean) - 1
		g.loadBurstAddr = g.churnLine(loadWSBase, g.p.LoadWSBytes)
		in.Addr = g.loadBurstAddr
		g.loadBurstAddr += lineBytes
		miss = true
	default:
		in.Addr = g.hotLine() + uint64(g.rng.Intn(8))*8
	}
	if miss {
		// Pointer chasing: some missing loads depend on the previous
		// missing load's value.
		if g.lastMissDst != 0 && g.rng.unit() < g.tDepLoad {
			in.Src1 = g.lastMissDst
		}
		g.lastMissDst = in.Dst
	}
	g.lastLoadDst = in.Dst
	return in
}

// emitCriticalSection queues a lock acquire (casa under TSO), a short
// body, and the releasing store — optionally preceded by a burst of
// missing stores, reproducing the paper's observation that most
// expensive missing stores immediately precede lock acquires.
func (g *Generator) emitCriticalSection() {
	if g.rng.unit() < g.tPreBurst {
		lines := g.geometric(g.p.StoreBurstMean)
		shared := g.rng.Float64() < g.p.SharedStoreFrac
		base := g.nextChurnBurst(shared, lines)
		var fl isa.Flags
		if shared {
			fl = isa.FlagShared
		}
		for i := 0; i < lines*g.storesPerLine(); i++ {
			g.push(isa.Inst{
				Op: isa.OpStore, PC: g.nextPC(), Size: 8,
				Addr: base + uint64(i)*g.storeBurstStep, Src1: g.nextReg(), Flags: fl,
			})
		}
	}
	lock := g.p.AddrOffset + lockBase + uint64(g.rng.Intn(lockCount))*lineBytes
	g.push(isa.Inst{
		Op: isa.OpCASA, PC: g.nextPC(), Addr: lock, Size: 8,
		Dst: g.nextReg(), Flags: isa.FlagLockAcquire,
	})
	for i := 0; i < critBodyLen; i++ {
		r := g.rng.Float64()
		switch {
		case r < 0.30:
			g.push(isa.Inst{Op: isa.OpLoad, PC: g.nextPC(), Addr: g.hotLine(), Size: 8, Dst: g.nextReg()})
		case r < 0.45:
			g.push(isa.Inst{Op: isa.OpStore, PC: g.nextPC(), Addr: g.hotLine(), Size: 8, Src1: g.nextReg()})
		default:
			g.push(isa.Inst{Op: isa.OpALU, PC: g.nextPC(), Dst: g.nextReg()})
		}
	}
	g.push(isa.Inst{
		Op: isa.OpStore, PC: g.nextPC(), Addr: lock, Size: 8,
		Src1: g.nextReg(), Flags: isa.FlagLockRelease,
	})
}
