package epoch

import (
	"storemlp/internal/isa"
	"storemlp/internal/smac"
	"storemlp/internal/uarch"
)

// commitStore models the life of a store after its address is generated
// at epoch x: store-buffer residence was already accounted at dispatch;
// here the store retires (entering the store queue, possibly coalescing
// into an existing entry), and commits into the L2 under the consistency
// model's ordering rules, with store prefetching, the SMAC and scout
// store prefetches applied. It returns the store's retire epoch and its
// retire-influence tag.
func (e *Engine) commitStore(in isa.Inst, idx, x int64, measuring, shared bool) (int64, uint8) {
	retireEpoch := maxi(e.lastRetire, x)
	tag := tagPlain

	if e.cfg.PerfectStores {
		// Stores never stall: update cache state for fidelity, charge
		// nothing, ignore queues.
		e.hier.Store(in.Addr, shared)
		return retireEpoch, tag
	}

	// ---- store coalescing (§3.3.1) ----
	gran := e.cfg.CoalesceBytes
	var alignAddr uint64
	if gran > 0 {
		alignAddr = in.Addr &^ uint64(gran-1)
		if e.cfg.Model.InOrderCommit() {
			// PC: only consecutive stores coalesce — the previous store
			// must still be in the store queue.
			if e.coalValid && e.coalAddr == alignAddr && e.coalDone > retireEpoch {
				return retireEpoch, tag
			}
		} else if done, ok := e.coalWC[alignAddr]; ok {
			// WC: any eligible (uncommitted) store queue entry.
			if done > retireEpoch {
				return retireEpoch, tag
			}
			delete(e.coalWC, alignAddr) // stale entry
		}
	}

	// ---- store queue admission ----
	if rq := e.sq.admit(retireEpoch); rq > retireEpoch {
		tag = tagSQ
		e.expose(idx)
		if e.cfg.HWS.TriggersOnStoreStall() {
			e.startScout(idx, retireEpoch, e.cfg.EffectiveScoutReach(), true)
		}
		retireEpoch = rq
	}

	// ---- commit ordering ----
	commitIssue := retireEpoch
	if e.cfg.Model.InOrderCommit() {
		if e.prevCommitDone > commitIssue {
			commitIssue = e.prevCommitDone
		}
	} else if e.lwsyncFloor > commitIssue {
		commitIssue = e.lwsyncFloor
	}

	// ---- L2 access ----
	res := e.hier.Store(in.Addr, shared)
	commitDone := commitIssue
	if res.OffChip {
		if e.sm.ProbeStore(in.Addr) == smac.Hit {
			// SMAC acceleration: ownership already held; the L2 buffers
			// the store data and merges the line in the background.
			if measuring {
				e.stats.SMACAccelerated++
			}
		} else {
			pf := commitIssue // Sp0: request issues at the SQ head, in order
			prefetched := false
			switch e.cfg.StorePrefetch {
			case uarch.Sp0:
				// No prefetch: the ownership request issues at the store
				// queue head (pf stays commitIssue).
			case uarch.Sp1:
				pf = retireEpoch
				prefetched = true
			case uarch.Sp2:
				pf = x
				prefetched = true
			default:
				panic("epoch: undefined store prefetch mode " + e.cfg.StorePrefetch.String())
			}
			if e.scoutStores && e.scoutActive(idx) && pf > e.scoutEpoch &&
				e.regReady[in.Src2] <= e.scoutEpoch {
				// Scout-mode store prefetch (HWS1/HWS2) or
				// prefetch-past-serializing.
				pf = e.scoutEpoch
				prefetched = true
			}
			if prefetched {
				// A prefetch-for-write request reaches the L2 in addition
				// to the eventual commit — the bandwidth cost the SMAC is
				// designed to avoid (§3.3.3).
				e.hier.Stats.L2PrefetchReqs++
			}
			e.chargeStore(pf, idx, measuring)
			if pf+1 > commitDone {
				commitDone = pf + 1 // wait for ownership to arrive
			}
		}
	}

	e.sq.push(commitDone)
	if e.cfg.Model.InOrderCommit() {
		e.prevCommitDone = commitDone
	}
	if commitDone > e.maxCommitDone {
		e.maxCommitDone = commitDone
	}

	// ---- coalescing bookkeeping ----
	if gran > 0 {
		if e.cfg.Model.InOrderCommit() {
			e.coalAddr, e.coalDone, e.coalValid = alignAddr, commitDone, true
		} else {
			if len(e.coalWC) > 4*e.cfg.StoreQueue+64 {
				for a, done := range e.coalWC {
					if done <= retireEpoch {
						delete(e.coalWC, a)
					}
				}
			}
			e.coalWC[alignAddr] = commitDone
		}
	}
	return retireEpoch, tag
}
