// Package epoch implements MLPsim: the epoch memory-level-parallelism
// model of §3 of the paper, extended to model missing stores.
//
// The engine consumes a dynamic instruction stream in program order and
// assigns every instruction integer-indexed epochs for fetch, dispatch,
// execute, retire and (for stores) commit. Off-chip misses issued in
// epoch e complete at the end of e; values they produce are usable in
// e+1. Epoch assignments are maxima over the active constraints:
// register and memory dependences, in-order fetch/dispatch/retire,
// occupancy of the fetch buffer, issue window, ROB, store buffer, load
// buffer and store queue, serializing-instruction drains, and the
// memory consistency model's store-commit ordering. EPI is the number
// of distinct epochs containing at least one off-chip miss, per
// instruction.
package epoch

import (
	"context"
	"fmt"

	"storemlp/internal/cache"
	"storemlp/internal/coherence"
	"storemlp/internal/consistency"
	"storemlp/internal/isa"
	"storemlp/internal/obs"
	"storemlp/internal/smac"
	"storemlp/internal/trace"
	"storemlp/internal/uarch"
)

// retire-influence tags carried alongside the retire rings so that later
// structure-full stalls can be classified "preceded by store queue full"
// (Figure 3).
const (
	tagPlain uint8 = iota
	tagSQ          // retirement was delayed by a full store queue
	tagLoad        // retirement was delayed by a missing load
)

const termScanCap = 64 // max epochs labelled per stall (ranges are tiny in practice)

type missKind uint8

const (
	kindLoad missKind = iota
	kindStore
	kindInst
)

type openStore struct {
	idx int64 // instruction index at which the miss was issued
	ep  int64 // epoch the miss was charged to
}

// Engine is one simulated core running the epoch MLP model.
type Engine struct {
	cfg  uarch.Config
	hier *cache.Hierarchy
	sm   *smac.SMAC
	traf *coherence.Traffic

	// Optional co-scheduled core sharing the L2 (pure cache pressure).
	// Its stream is pulled through bgBuf a block at a time;
	// bgBuf[bgPos:bgLen] holds the instructions not yet stepped.
	bgSrc        trace.Source
	bgHier       *cache.Hierarchy
	bgBuf        [bgBatchLen]isa.Inst //storemlp:keep (contents overwritten by every fill)
	bgPos, bgLen int

	// Scheduling state (all in epoch units).
	regReady     [isa.RegCount]int64
	fetchAvail   int64
	lastDispatch int64
	lastRetire   int64
	serialBar    int64 // all later instructions execute at or after this

	robRing *ring
	fbRing  *ring
	sbRing  *ring
	lbRing  *ring
	iw      *occupancy
	sq      *occupancy

	prevCommitDone int64 // PC in-order commit chain
	maxCommitDone  int64 // serializer store-drain target
	lwsyncFloor    int64 // WC: commits ordered after this epoch

	// Store coalescing.
	coalAddr  uint64
	coalDone  int64
	coalValid bool
	coalWC    map[uint64]int64

	// Scout window (Hardware Scout and prefetch-past-serializing).
	scoutUntil  int64
	scoutEpoch  int64
	scoutStores bool

	// Fully-overlapped-store tracking (Table 2).
	open     []openStore
	openHead int
	window   int64

	lastLoadMissEpoch int64

	idx  int64
	warm int64

	// Sliding epoch-record window. Epochs are monotone and only ever
	// referenced within a bounded lookback (see refFloor), so records
	// live in a power-of-two ring: win[ep&winMask] holds epoch ep for
	// ep in [winBase, winBase+len(win)). Records that fall below the
	// reference floor are folded into stats and their slots zeroed for
	// reuse; [winBase, winHi) is the materialized span and every slot
	// outside it is zero.
	win     []epochRec
	winMask int64
	winBase int64
	winHi   int64

	// batch is the reused block buffer RunContext fills from the trace
	// source; its contents are overwritten before every read.
	batch []isa.Inst //storemlp:keep

	// Baselines snapshotted when measurement starts so warmup and
	// prewarming are excluded from substrate statistics.
	hierBase  cache.HierarchyStats
	smacBase  smac.Stats
	snoopBase int64

	// Observability sink attached for the duration of one run: the
	// request trace receives the live counters once per batch and, when
	// it records engine detail, batch/fold spans and window_grow/
	// measure_start instants under rtParent (the run's simulate span).
	// rtParent is NoSpan when the trace records no detail, so the hot
	// paths pay one comparison and never read the clock. Reconfigure
	// detaches the trace; SetObs re-attaches it per run.
	rt       *obs.ReqTrace
	rtParent obs.SpanID

	stats Stats
}

// Option configures an Engine.
type Option func(*Engine) error

// WithSharedCore attaches a second core's instruction stream to the
// shared L2 — the paper's CMP configuration has two cores per L2. The
// co-runner advances one instruction per simulated instruction and
// exerts pure cache pressure (its own pipeline is not modelled): its
// accesses go through private L1s into the shared L2, and its Modified
// evictions feed the SMAC like the primary core's.
func WithSharedCore(src trace.Source) Option {
	return func(e *Engine) error {
		if src == nil {
			return fmt.Errorf("epoch: nil shared-core source")
		}
		e.bgSrc = src
		e.bgHier = cache.NewSharedHierarchy(e.cfg.Hierarchy, e.hier.L2)
		if e.sm != nil {
			e.bgHier.OnL2Evict = e.hier.OnL2Evict
		}
		return nil
	}
}

// WithTraffic attaches remote-node coherence traffic (Figure 6).
func WithTraffic(spec coherence.TrafficSpec, seed int64) Option {
	return func(e *Engine) error {
		t, err := coherence.NewTraffic(spec, e.cfg.Nodes, seed, nil)
		if err != nil {
			return err
		}
		t.SetHandler(e.onSnoop)
		e.traf = t
		return nil
	}
}

// New builds an engine for the given machine configuration.
func New(cfg uarch.Config, opts ...Option) (*Engine, error) {
	e := new(Engine)
	if err := e.Reconfigure(cfg, opts...); err != nil {
		return nil, err
	}
	return e, nil
}

// Reconfigure returns the engine to its freshly constructed state for
// cfg, reusing existing allocations whose geometry still fits: the
// structure rings and occupancy queues, the epoch-record window, the
// batch buffer, and — when the relevant parameters are unchanged — the
// cache hierarchy and SMAC. A reconfigured engine is observationally
// identical to New(cfg, opts...); the serving layer
// relies on this to recycle engines across requests instead of
// rebuilding the multi-megabyte substrate per simulation. It is safe
// to call after an abandoned (cancelled) run: all mid-run state is
// discarded.
func (e *Engine) Reconfigure(cfg uarch.Config, opts ...Option) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if e.hier != nil && e.cfg.Hierarchy == cfg.Hierarchy {
		e.hier.Reset()
	} else {
		e.hier = cache.NewHierarchy(cfg.Hierarchy)
	}
	e.robRing = resizeRing(e.robRing, cfg.ROB)
	e.fbRing = resizeRing(e.fbRing, cfg.FetchBuffer)
	e.sbRing = resizeRing(e.sbRing, cfg.StoreBuffer)
	e.lbRing = resizeRing(e.lbRing, cfg.LoadBuffer)
	e.iw = resizeOccupancy(e.iw, cfg.IssueWindow)
	e.sq = resizeOccupancy(e.sq, cfg.StoreQueue)

	if e.win == nil {
		e.win = make([]epochRec, initialWinLen)
		e.winMask = initialWinLen - 1
	} else {
		// Only [winBase, winHi) may hold live records (an abandoned run
		// leaves them populated); every slot outside the span is already
		// zero by the window invariant.
		for ep := e.winBase; ep < e.winHi; ep++ {
			e.win[ep&e.winMask] = epochRec{}
		}
	}
	e.winBase, e.winHi = 0, 0

	e.regReady = [isa.RegCount]int64{}
	e.fetchAvail, e.lastDispatch, e.lastRetire, e.serialBar = 0, 0, 0, 0
	e.prevCommitDone, e.maxCommitDone, e.lwsyncFloor = 0, 0, 0
	e.coalAddr, e.coalDone, e.coalValid = 0, 0, false
	if cfg.Model == consistency.WC {
		if e.coalWC == nil {
			e.coalWC = make(map[uint64]int64)
		} else {
			clear(e.coalWC)
		}
	} else {
		e.coalWC = nil
	}
	e.scoutUntil, e.scoutEpoch, e.scoutStores = 0, 0, false
	e.open = e.open[:0]
	e.openHead = 0
	e.lastLoadMissEpoch = -1
	e.idx = 0
	e.warm = cfg.WarmInsts
	e.window = cfg.OverlapWindow()
	e.hierBase = cache.HierarchyStats{}
	e.smacBase = smac.Stats{}
	e.snoopBase = 0
	e.rt, e.rtParent = nil, obs.NoSpan
	e.stats = Stats{}

	if cfg.SMACEntries > 0 {
		if e.sm != nil && e.cfg.SMACParams() == cfg.SMACParams() {
			e.sm.Reset()
		} else {
			e.sm = smac.New(cfg.SMACParams())
		}
		e.hier.OnL2Evict = func(addr uint64, st cache.MESI) {
			if st == cache.Modified {
				e.sm.RecordEviction(addr)
			}
		}
	} else {
		e.sm = nil
		e.hier.OnL2Evict = nil
	}

	// Option state is always rebuilt: seeds and sources are per run.
	e.traf = nil
	e.bgSrc, e.bgHier = nil, nil
	e.bgPos, e.bgLen = 0, 0
	e.cfg = cfg
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return err
		}
	}
	return nil
}

// bgBatchLen is the block size the co-scheduled core's stream is
// pulled in: big enough to amortize the source's call overhead, small
// enough to keep the Engine compact.
const bgBatchLen = 256

// stepSharedCore advances the co-scheduled core by one instruction.
func (e *Engine) stepSharedCore() {
	if e.bgSrc == nil {
		return
	}
	if e.bgPos == e.bgLen {
		e.bgPos, e.bgLen = 0, trace.Fill(e.bgSrc, e.bgBuf[:])
		if e.bgLen == 0 {
			e.bgSrc = nil
			return
		}
	}
	in := e.bgBuf[e.bgPos]
	e.bgPos++
	e.bgHier.Fetch(in.PC)
	shared := in.Flags.Has(isa.FlagShared)
	if in.Op.IsLoad() {
		e.bgHier.Load(in.Addr, shared)
	}
	if in.Op.IsStore() {
		e.bgHier.Store(in.Addr, shared)
	}
}

func (e *Engine) onSnoop(s coherence.Snoop) {
	if s.Kind == coherence.SnoopRTO {
		e.hier.SnoopInvalidate(s.Addr)
	} else {
		e.hier.SnoopShared(s.Addr)
	}
	// Any snoop that hits the SMAC invalidates the sub-block (§3.3.3).
	e.sm.SnoopInvalidate(s.Addr)
}

// Run drives the engine over the instruction stream and returns the
// accumulated statistics.
func (e *Engine) Run(src trace.Source) (*Stats, error) {
	return e.RunContext(context.Background(), src)
}

// batchLen is the block size RunContext pulls from the trace source:
// large enough that interface dispatch, the cancellation poll and the
// trace transform chain amortize to noise, small enough that a block of
// isa.Inst stays cache-resident (4096 x 24 B = 96 KB).
const batchLen = 4096

// RunContext is Run with cancellation: the engine polls ctx once per
// instruction block and abandons the run — returning ctx's error and no
// statistics — once the context is done. This is how the serving layer
// honours client disconnects and per-request deadlines.
func (e *Engine) RunContext(ctx context.Context, src trace.Source) (*Stats, error) {
	if src == nil {
		return nil, fmt.Errorf("epoch: nil trace source")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if e.batch == nil {
		e.batch = make([]isa.Inst, batchLen)
	}
	var published obs.Counters // what this run has added to e.rt so far
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var batchStart int64
		if e.rtParent != obs.NoSpan {
			batchStart = obs.Now()
		}
		n := trace.Fill(src, e.batch)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			e.step(e.batch[i])
		}
		if e.rtParent != obs.NoSpan {
			e.rt.Complete(obs.StageBatch, e.rtParent, batchStart, int64(n))
		}
		e.publishProgress(&published)
	}
	var foldStart int64
	if e.rtParent != obs.NoSpan {
		foldStart = obs.Now()
	}
	e.finalize()
	e.publishProgress(&published)
	if e.rtParent != obs.NoSpan {
		e.rt.Complete(obs.StageFold, e.rtParent, foldStart, e.stats.Epochs)
	}
	return &e.stats, nil
}

// SetObs attaches rt for the next run. The trace always receives the
// live counters; engine-detail spans (batches, fold, window_grow,
// measure_start) are recorded under parent — the simulate span the
// caller opened around the run — only when rt records detail and
// parent exists. A nil rt detaches; so does Reconfigure.
func (e *Engine) SetObs(rt *obs.ReqTrace, parent obs.SpanID) {
	if !rt.Detailed() {
		parent = obs.NoSpan
	}
	e.rt, e.rtParent = rt, parent
}

// publishProgress adds the change in the live counters since *published
// to the attached trace: instructions stepped, measured instructions,
// and the epochs and misses folded out of the window so far. Called
// once per batch and once after finalize, so the cost amortizes to
// noise — and to one branch in Publish when no trace is attached.
//
//storemlp:noalloc
func (e *Engine) publishProgress(published *obs.Counters) {
	e.rt.Publish(obs.Counters{Insts: e.idx, Measured: e.stats.Insts, Epochs: e.stats.Epochs,
		LoadInstMisses: e.stats.LoadMisses + e.stats.InstMisses, StoreMisses: e.stats.StoreMisses}, published)
}

func maxi(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// initialWinLen is the starting epoch-record ring size; the steady-state
// live span is bounded by the machine's structural lookback (a few
// hundred epochs for realistic configurations), so growth is a
// pathological fallback, not the common case.
const initialWinLen = 1024

// refFloor returns the lowest epoch any future operation can still
// reference: the in-order fetch chain (every charge and label site is at
// or above fetchAvail at the time it runs), lowered by an active scout
// window's trigger epoch and by open store misses awaiting the
// fully-overlapped adjustment. Each component is at or above the floor
// that held when it was created, so the floor never retreats and
// records below it are permanently immutable — safe to fold.
func (e *Engine) refFloor() int64 {
	floor := e.fetchAvail
	if e.idx <= e.scoutUntil && e.scoutEpoch < floor {
		floor = e.scoutEpoch
	}
	for i := e.openHead; i < len(e.open); i++ {
		if e.open[i].ep < floor {
			floor = e.open[i].ep
		}
	}
	if floor < e.winBase {
		floor = e.winBase
	}
	return floor
}

// advanceWin makes room for epoch ep: records below the reference floor
// fold into stats and free their slots; if the still-live span cannot
// fit the ring even after folding, the ring doubles.
func (e *Engine) advanceWin(ep int64) {
	floor := e.refFloor()
	foldTo := floor
	if foldTo > e.winHi {
		foldTo = e.winHi
	}
	for e.winBase < foldTo {
		r := &e.win[e.winBase&e.winMask]
		e.foldRec(r)
		*r = epochRec{}
		e.winBase++
	}
	if e.winBase < floor {
		// Nothing was materialized in [winBase, floor); skip ahead.
		e.winBase = floor
		e.winHi = floor
	}
	for ep >= e.winBase+int64(len(e.win)) {
		e.growWin()
	}
}

// growWin doubles the ring, rehoming the live span.
func (e *Engine) growWin() {
	next := make([]epochRec, 2*len(e.win))
	mask := int64(len(next) - 1)
	for epo := e.winBase; epo < e.winHi; epo++ {
		next[epo&mask] = e.win[epo&e.winMask]
	}
	e.win = next
	e.winMask = mask
	if e.rtParent != obs.NoSpan {
		e.rt.Instant(obs.StageWindowGrow, e.rtParent, int64(len(e.win)))
	}
}

// winRec returns the record for epoch ep, sliding the window forward as
// needed. ep below the folded horizon would mean the floor invariant is
// broken — mutating a folded epoch silently corrupts stats, so fail
// loudly instead.
func (e *Engine) winRec(ep int64) *epochRec {
	if ep < e.winBase {
		panic(fmt.Sprintf("epoch: reference to epoch %d below folded horizon %d", ep, e.winBase))
	}
	if ep >= e.winBase+int64(len(e.win)) {
		e.advanceWin(ep)
	}
	if ep >= e.winHi {
		e.winHi = ep + 1
	}
	return &e.win[ep&e.winMask]
}

// charge books one miss of the given kind against epoch ep — the
// per-miss hot path, called for every off-chip access.
//
//storemlp:noalloc
func (e *Engine) charge(ep int64, kind missKind, measuring bool) {
	if !measuring {
		return
	}
	r := e.winRec(ep)
	r.live = true
	switch kind {
	case kindLoad:
		r.loadMisses++
	case kindStore:
		r.storeMisses++
	case kindInst:
		r.instMisses++
	}
}

// setTermRange labels charged epochs in [from,to) with the termination
// condition, first cause winning. Epochs beyond the materialized span
// carry no charge yet and so (as with the old map accounting) take no
// label.
func (e *Engine) setTermRange(from, to int64, cond TermCond) {
	if to > from+termScanCap {
		to = from + termScanCap
	}
	if from < e.winBase {
		from = e.winBase
	}
	if to > e.winHi {
		to = e.winHi
	}
	for ep := from; ep < to; ep++ {
		if r := &e.win[ep&e.winMask]; r.live && r.term == TermNone {
			r.term = cond
		}
	}
}

// expose marks all open store misses younger than the overlap window as
// exposed: the processor stalled while they were in the store queue.
func (e *Engine) expose(idx int64) {
	e.drainOverlapped(idx)
	for e.openHead < len(e.open) {
		e.open[e.openHead] = openStore{}
		e.openHead++
		e.stats.ExposedStores++
	}
	e.compactOpen()
}

// drainOverlapped retires open store misses that survived a full overlap
// window without any stall: they were fully hidden by computation and
// their miss is removed from epoch accounting (Table 2 adjustment).
func (e *Engine) drainOverlapped(idx int64) {
	for e.openHead < len(e.open) && idx-e.open[e.openHead].idx >= e.window {
		s := e.open[e.openHead]
		e.open[e.openHead] = openStore{}
		e.openHead++
		e.stats.OverlappedStores++
		// s.ep is above the fold horizon by construction: open entries
		// hold the floor down until they drain here.
		if r := e.winRec(s.ep); r.live && r.storeMisses > 0 {
			r.storeMisses--
		}
	}
	e.compactOpen()
}

func (e *Engine) compactOpen() {
	if e.openHead == len(e.open) {
		e.open = e.open[:0]
		e.openHead = 0
	} else if e.openHead > 1024 {
		n := copy(e.open, e.open[e.openHead:])
		e.open = e.open[:n]
		e.openHead = 0
	}
}

func (e *Engine) chargeStore(ep, idx int64, measuring bool) {
	e.charge(ep, kindStore, measuring)
	if measuring {
		e.open = append(e.open, openStore{idx: idx, ep: ep})
	}
}

// startScout opens (or extends) a scout window: instructions up to
// reach beyond idx may have their misses prefetched in epoch ep.
func (e *Engine) startScout(idx, ep int64, reach int, stores bool) {
	until := idx + int64(reach)
	if idx >= e.scoutUntil {
		e.scoutUntil, e.scoutEpoch, e.scoutStores = until, ep, stores
		return
	}
	if until > e.scoutUntil {
		e.scoutUntil = until
	}
	if ep < e.scoutEpoch {
		e.scoutEpoch = ep
	}
	e.scoutStores = e.scoutStores || stores
}

func (e *Engine) scoutActive(idx int64) bool { return idx < e.scoutUntil }

// addrReadyBy reports whether the instruction's source registers are
// available at or before epoch ep — i.e. a scout could compute its
// address without depending on an outstanding miss.
func (e *Engine) addrReadyBy(in isa.Inst, ep int64) bool {
	return e.regReady[in.Src1] <= ep && e.regReady[in.Src2] <= ep
}

// step advances the model by one instruction. It runs half a billion
// times per Figure-2 point, so it must stay allocation-free: every
// structure it touches (rings, occupancy queues, the record window,
// the hierarchy fast paths) works in place.
//
//storemlp:noalloc
func (e *Engine) step(in isa.Inst) {
	idx := e.idx
	e.idx++
	measuring := idx >= e.warm
	if idx == e.warm {
		e.snapshotBaselines()
	}
	if e.traf != nil {
		e.traf.AdvanceOne()
	}
	if e.bgSrc != nil {
		e.stepSharedCore()
	}
	if e.openHead < len(e.open) {
		e.drainOverlapped(idx)
	}

	perfect := e.cfg.PerfectStores
	shared := in.Flags.Has(isa.FlagShared)

	// ---------------- fetch ----------------
	f := e.fetchAvail
	if c, _ := e.fbRing.oldest(); c > f {
		f = c // fetch buffer full: folded into in-order fetch delay
	}
	fr := e.hier.Fetch(in.PC)
	instAvail := f
	if fr.OffChip {
		if e.scoutActive(idx) {
			ep := e.scoutEpoch
			if f < ep {
				ep = f
			}
			e.charge(ep, kindInst, measuring)
			e.hier.Stats.L2PrefetchReqs++
			e.fetchAvail = maxi(f, ep+1)
		} else {
			e.charge(f, kindInst, measuring)
			e.setTermRange(f, f+1, TermInstMiss)
			e.expose(idx)
			e.fetchAvail = f + 1
		}
		instAvail = e.fetchAvail
	} else {
		e.fetchAvail = f
	}

	// ---------------- dispatch ----------------
	d := maxi(instAvail, e.lastDispatch)
	if c, tag := e.robRing.oldest(); c > d {
		cond := TermWindowFull
		if tag == tagSQ {
			cond = TermSQWindowFull
			if e.cfg.HWS.TriggersOnStoreStall() {
				e.startScout(idx, d, e.cfg.EffectiveScoutReach(), true)
			}
		}
		e.setTermRange(d, c, cond)
		e.expose(idx)
		d = c
	}
	if d2 := e.iw.admit(d); d2 > d {
		e.setTermRange(d, d2, TermWindowFull)
		e.expose(idx)
		d = d2
	}
	if in.Op.IsStore() && !perfect {
		if c, tag := e.sbRing.oldest(); c > d {
			cond := TermSBFull
			if tag == tagSQ {
				cond = TermSQSBFull
				if e.cfg.HWS.TriggersOnStoreStall() {
					e.startScout(idx, d, e.cfg.EffectiveScoutReach(), true)
				}
			}
			e.setTermRange(d, c, cond)
			e.expose(idx)
			d = c
		}
	}
	if in.Op.IsLoad() {
		if c, _ := e.lbRing.oldest(); c > d {
			e.setTermRange(d, c, TermWindowFull)
			d = c
		}
	}
	e.lastDispatch = d

	// ---------------- execute ----------------
	x := maxi(d, e.serialBar)
	if r := e.regReady[in.Src1]; r > x {
		x = r
	}
	if r := e.regReady[in.Src2]; r > x {
		x = r
	}

	comp := x
	retireTag := tagPlain

	switch {
	case in.Op == isa.OpLWSync:
		// Orders later store commits after earlier ones without
		// stalling execution.
		if e.maxCommitDone > e.lwsyncFloor {
			e.lwsyncFloor = e.maxCommitDone
		}

	case in.Serializing():
		x, comp = e.execSerializer(in, idx, x, measuring)
		if in.Dst != 0 {
			e.regReady[in.Dst] = comp
		}

	case in.Op == isa.OpLoad || in.Op == isa.OpLoadLocked:
		res := e.hier.Load(in.Addr, shared)
		if res.OffChip {
			if e.scoutActive(idx) && x > e.scoutEpoch && e.addrReadyBy(in, e.scoutEpoch) {
				// Scout prefetched this miss during the trigger's epoch.
				e.charge(e.scoutEpoch, kindLoad, measuring)
				e.hier.Stats.L2PrefetchReqs++
			} else {
				e.charge(x, kindLoad, measuring)
				e.lastLoadMissEpoch = x
				comp = x + 1
				retireTag = tagLoad
				// Note: the load miss itself is not an exposure event for
				// open stores — the stall it causes surfaces later as a
				// structural (ROB/window) bind, which is.
				if e.cfg.HWS != uarch.NoHWS {
					e.startScout(idx, x, e.cfg.EffectiveScoutReach(), e.cfg.HWS.PrefetchesStores())
				}
			}
		}
		if in.Dst != 0 {
			e.regReady[in.Dst] = comp
		}

	case in.Op.IsStore():
		var r int64
		r, retireTag = e.commitStore(in, idx, x, measuring, shared)
		comp = r

	case in.Op == isa.OpBranch:
		if in.Flags.Has(isa.FlagMispredict) && x > e.fetchAvail {
			// Unresolvable misprediction: fetch stalls until the branch's
			// (miss-fed) source resolves.
			e.setTermRange(e.fetchAvail, x, TermMispredBranch)
			e.expose(idx)
			e.fetchAvail = x
		}

	default: // ALU
		if in.Dst != 0 {
			e.regReady[in.Dst] = x
		}
	}

	// ---------------- retire ----------------
	retire := maxi(e.lastRetire, comp)
	e.lastRetire = retire
	e.robRing.push(retire, retireTag)
	e.fbRing.push(d, tagPlain)
	e.iw.push(x)
	if in.Op.IsStore() && !perfect {
		e.sbRing.push(retire, retireTag)
	}
	if in.Op.IsLoad() {
		e.lbRing.push(retire, tagPlain)
	}
	if measuring {
		e.stats.Insts++
	}
}

// execSerializer handles casa, membar (PC) and isync (WC): the pipeline
// drains, and under PC all earlier stores must also commit. casa then
// performs its atomic memory access. Returns the execute epoch and the
// completion epoch, and raises the serialization barrier.
func (e *Engine) execSerializer(in isa.Inst, idx, x int64, measuring bool) (int64, int64) {
	perfect := e.cfg.PerfectStores

	// Pipeline drain: all earlier instructions retired.
	if e.lastRetire > x {
		cond := TermStoreSerialize
		if e.lastLoadMissEpoch >= x {
			cond = TermOtherSerialize
		}
		e.setTermRange(x, e.lastRetire, cond)
		x = e.lastRetire
	}
	// Store drain under PC: all earlier stores committed.
	if e.cfg.Model.DrainsStoresOnSerialize() && in.Op != isa.OpISync && !perfect {
		if e.maxCommitDone > x {
			cond := TermStoreSerialize
			if e.lastLoadMissEpoch >= x {
				cond = TermOtherSerialize
			}
			e.setTermRange(x, e.maxCommitDone, cond)
			e.expose(idx)
			if e.cfg.PrefetchPastSerializing {
				e.startScout(idx, x, e.cfg.ROB, true)
			}
			if e.cfg.HWS.TriggersOnStoreStall() {
				// During a store-drain serialization stall dispatch is
				// stopped just as on store-queue-full, so the HWS2
				// store-stall trigger applies here too.
				e.startScout(idx, x, e.cfg.EffectiveScoutReach(), true)
			}
			x = e.maxCommitDone
		}
	}

	comp := x
	if in.Op == isa.OpCASA {
		// Atomic load+store to the lock word: needs ownership.
		res := e.hier.Store(in.Addr, in.Flags.Has(isa.FlagShared))
		if res.OffChip && !perfect {
			if e.sm.ProbeStore(in.Addr) == smac.Hit {
				if measuring {
					e.stats.SMACAccelerated++
				}
			} else {
				e.charge(x, kindStore, measuring)
				if measuring {
					e.stats.ExposedStores++ // the processor waits on it by definition
				}
				comp = x + 1
			}
		}
		if e.cfg.Model.InOrderCommit() && !perfect {
			if comp > e.prevCommitDone {
				e.prevCommitDone = comp
			}
			if comp > e.maxCommitDone {
				e.maxCommitDone = comp
			}
		}
	}
	if comp > e.serialBar {
		e.serialBar = comp
	}
	return x, comp
}

// Hierarchy exposes the engine's cache hierarchy so tests and examples
// can pre-warm lines and inspect state.
func (e *Engine) Hierarchy() *cache.Hierarchy { return e.hier }

// SMAC exposes the store-miss accelerator; nil when not configured.
func (e *Engine) SMAC() *smac.SMAC { return e.sm }

// foldRec retires one epoch record into the aggregate statistics. All
// contributions are commutative adds, so fold order (incremental during
// the run vs. the old end-of-run map sweep) does not affect the result.
//
//storemlp:noalloc
func (e *Engine) foldRec(r *epochRec) {
	m := r.misses()
	if m <= 0 {
		return
	}
	e.stats.Epochs++
	e.stats.StoreMisses += int64(r.storeMisses)
	e.stats.LoadMisses += int64(r.loadMisses)
	e.stats.InstMisses += int64(r.instMisses)
	sb := int(r.storeMisses)
	if sb > MaxStoreMLPBucket {
		sb = MaxStoreMLPBucket
	}
	lb := int(r.loadMisses + r.instMisses)
	if lb > MaxLoadInstBucket {
		lb = MaxLoadInstBucket
	}
	e.stats.MLPJoint[sb][lb]++
	if r.storeMisses > 0 {
		e.stats.EpochsWithStore++
		e.stats.TermCounts[r.term]++
	}
}

func (e *Engine) finalize() {
	// Stores that aged past the overlap window without a stall are fully
	// overlapped; anything still open at end of trace is conservatively
	// counted as exposed (its fate is unknowable).
	e.drainOverlapped(e.idx)
	e.expose(e.idx)
	for ep := e.winBase; ep < e.winHi; ep++ {
		r := &e.win[ep&e.winMask]
		e.foldRec(r)
		*r = epochRec{}
	}
	e.winBase = e.winHi
	e.stats.Hierarchy = subHier(e.hier.Stats, e.hierBase)
	if e.sm != nil {
		e.stats.SMAC = subSMAC(e.sm.Stats, e.smacBase)
	}
	if e.traf != nil {
		e.stats.Snoops = e.traf.Delivered - e.snoopBase
	}
}

// snapshotBaselines records substrate counters at the moment measurement
// begins, so that prewarming and the warmup prefix are excluded.
func (e *Engine) snapshotBaselines() {
	e.hierBase = e.hier.Stats
	if e.sm != nil {
		e.smacBase = e.sm.Stats
	}
	if e.traf != nil {
		e.snoopBase = e.traf.Delivered
	}
	if e.rtParent != obs.NoSpan {
		e.rt.Instant(obs.StageMeasureStart, e.rtParent, e.idx)
	}
}

func subHier(a, b cache.HierarchyStats) cache.HierarchyStats {
	return cache.HierarchyStats{
		Fetches:        a.Fetches - b.Fetches,
		FetchOffChip:   a.FetchOffChip - b.FetchOffChip,
		Loads:          a.Loads - b.Loads,
		LoadOffChip:    a.LoadOffChip - b.LoadOffChip,
		Stores:         a.Stores - b.Stores,
		StoreOffChip:   a.StoreOffChip - b.StoreOffChip,
		StoreUpgrades:  a.StoreUpgrades - b.StoreUpgrades,
		TLBMisses:      a.TLBMisses - b.TLBMisses,
		L2StoreTraffic: a.L2StoreTraffic - b.L2StoreTraffic,
		L2PrefetchReqs: a.L2PrefetchReqs - b.L2PrefetchReqs,
	}
}

func subSMAC(a, b smac.Stats) smac.Stats {
	return smac.Stats{
		Evictions:            a.Evictions - b.Evictions,
		Probes:               a.Probes - b.Probes,
		Hits:                 a.Hits - b.Hits,
		HitInvalidated:       a.HitInvalidated - b.HitInvalidated,
		Misses:               a.Misses - b.Misses,
		CoherenceInvalidates: a.CoherenceInvalidates - b.CoherenceInvalidates,
		EntryEvictions:       a.EntryEvictions - b.EntryEvictions,
	}
}
