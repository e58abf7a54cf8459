package sim

import (
	"fmt"
	"math/bits"
)

// This file is the structure-of-arrays (SoA) backend of the engine: the
// columnar fast path selected by Config.Engine == EngineSoA. Instead of
// materializing per-receiver inboxes ([]Recv per process per round), the
// engine keeps one set of per-receiver tally columns and computes them
// with whole-vector sweeps: full-broadcast totals once per round, a
// self-exclusion pass, and one popcount/word sweep per distinct delivery
// mask. Protocols participate through a TallyKernel — a columnar state
// machine that advances every process of a round in one call — which
// core.Proc provides for SynRan. Everything else (crash validity rules,
// observer events, metrics, Result bookkeeping) is shared with the
// object path, and the conformance harness pins byte-identical behavior
// between the two engines on every case.
//
// Aliasing contract (extends the PR-2 arena rules in DESIGN.md): the
// tally columns, the live-set index, and the per-group delivery scratch
// masks are engine-owned. Adversary plan masks are only read during the
// FinishRound call they were passed to; the engine copies each distinct
// mask into its own groupScratch slot and groups victims sharing one
// adversary mask pointer so a shared rescue mask costs one sweep total.
//
// Every per-round sweep walks the live set (alive ∧ ¬halted ∧ ¬corrupt,
// kept incrementally in sim.go), so once the adversary has decimated the
// population a round costs O(survivors + n/64), not O(n).

// Engine names accepted by Config.Engine.
const (
	// EngineObject is the original object-per-process, inbox-per-receiver
	// engine; it runs every Process implementation.
	EngineObject = "object"
	// EngineSoA selects the columnar fast path. It engages only when the
	// process vector offers a TallyKernel (core SynRan without the
	// LeaderCoin option or an injected coin); otherwise the execution
	// silently runs the object path with identical results.
	EngineSoA = "soa"
)

// ValidEngine returns nil iff name is an accepted Config.Engine value
// ("", EngineObject, or EngineSoA). It is the single source of truth for
// engine-name validation: flag parsing (internal/cli), scenario
// validation (internal/scenario), and the conformance case parser all
// delegate here instead of re-encoding the name list.
func ValidEngine(name string) error {
	if name == "" || name == EngineObject || name == EngineSoA {
		return nil
	}
	return fmt.Errorf("sim: unknown engine %q (want %q or %q)", name, EngineObject, EngineSoA)
}

// TallyColumns are the per-receiver delivery aggregates of one exchange
// round, the SoA replacement for materialized inboxes. For receiver j:
// Ones/Zeros count delivered messages exactly as core's countValues
// would classify them; Count is the number of delivered messages
// (len(inbox)); MaskZero/MaskOne count delivered messages whose
// witnessed-value set contains 0 resp. 1, so the flood-stage union is
// (MaskZero[j] > 0 ? maskZero : 0) | (MaskOne[j] > 0 ? maskOne : 0).
// Counts (not booleans) are stored for the mask bits because the
// self-exclusion and mask sweeps need subtraction, which a plain OR does
// not support.
type TallyColumns struct {
	Ones, Zeros, Count []int32
	MaskZero, MaskOne  []int32
}

func (t *TallyColumns) resize(n int) {
	t.Ones = resizeInt32s(t.Ones, n)
	t.Zeros = resizeInt32s(t.Zeros, n)
	t.Count = resizeInt32s(t.Count, n)
	t.MaskZero = resizeInt32s(t.MaskZero, n)
	t.MaskOne = resizeInt32s(t.MaskOne, n)
}

func (t *TallyColumns) copyFrom(src *TallyColumns) {
	t.Ones = append(t.Ones[:0], src.Ones...)
	t.Zeros = append(t.Zeros[:0], src.Zeros...)
	t.Count = append(t.Count[:0], src.Count...)
	t.MaskZero = append(t.MaskZero[:0], src.MaskZero...)
	t.MaskOne = append(t.MaskOne[:0], src.MaskOne...)
}

func resizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// TallyKernel is a columnar protocol state machine: the whole process
// vector's state held as flat arrays, advanced one round per call. It is
// the protocol half of the SoA engine; core.Proc builds one (via
// KernelBuilder) for kernel-capable SynRan vectors.
//
// Determinism contract: a kernel adopted from a process vector must
// behave bit-identically to driving those processes through the object
// path — same payloads, same decisions, same rng consumption. The
// conformance differential lane enforces this on every case.
type TallyKernel interface {
	// KernelRound runs Phase A of round r for every process i in live
	// (alive, not halted, not corrupt), reading its delivery tally from t
	// (unread when r == 1) and writing payloads[i] and sending[i]. Entries
	// outside live are left untouched, so a round costs O(live + n/64).
	KernelRound(r int, live *BitSet, t *TallyColumns, payloads []int64, sending []bool)
	// KernelClass classifies a wire payload the way the protocol's
	// aggregation does: one is the countValues class, mz/mo whether the
	// payload's witnessed-value set contains 0 resp. 1. It must be a pure
	// function; the engine memoizes it per payload value.
	KernelClass(payload int64) (one, mz, mo bool)
	// KernelDecided / KernelStopped mirror Process.Decided / Stopped for
	// process i.
	KernelDecided(i int) (value int, ok bool)
	KernelStopped(i int) bool
	// KernelBookkeep is the batch form of the per-process Decided/Stopped
	// sweep at the end of a round: for every i in live it marks halted[i]
	// and removes i from live when the process has stopped. It returns how
	// many processes of live, as passed in, have not decided, and how
	// many of those it halted. The engine uses it on the observer- and
	// metrics-free path (Monte-Carlo rollouts), where no per-process event
	// attribution is needed.
	KernelBookkeep(live *BitSet, halted []bool) (undecided, haltedUndecided int)
	// KernelConsensus is the batch form of the survivors' common-decision
	// scan: the agreed value over every alive, non-corrupt, decided
	// process, or -1 if none decided or they disagree.
	KernelConsensus(alive, corrupt []bool) int
	// KernelReseed mirrors Reseeder.Reseed for process i.
	KernelReseed(i int, seed uint64)
	// KernelClone returns a deep copy; KernelCopyInto overwrites dst
	// (reusing its storage) and reports false on a type mismatch.
	KernelClone() TallyKernel
	KernelCopyInto(dst TallyKernel) bool
	// KernelSync writes process i's current columnar state back into its
	// object form p (a process of the type the kernel was adopted from),
	// so the full-information Process accessor and the Byzantine
	// fall-back path stay exact.
	KernelSync(i int, p Process)
}

// KernelBuilder is implemented by processes that can adopt a whole
// process vector into a TallyKernel. The engine probes procs[0] at
// Reset; a nil kernel (vector not kernel-capable) falls back to the
// object path.
type KernelBuilder interface {
	BuildKernel(procs []Process) TallyKernel
}

// soaClass is the memoized KernelClass result for one payload value.
type soaClass struct {
	one, mz, mo bool
}

// soaGroup accumulates the victims of one round that share a delivery
// mask pointer: their final messages are applied to the mask's eligible
// receivers in a single word sweep, whatever the group's size. orig is
// the adversary's mask pointer (the grouping key, only compared, never
// read after the crash loop); mask is the engine-owned copy, taken once
// per group so a mass-crash plan with one shared mask costs one copy,
// not one per victim. delivered memoizes mask.Count() for OnCrash.
type soaGroup struct {
	orig                     *BitSet
	mask                     *BitSet
	ones, zeros, mz, mo, cnt int32
	delivered                int
}

// enterTallyMode probes the process vector for a kernel and initializes
// the columnar state. Called from Reset after validation.
func (e *Execution) enterTallyMode() {
	e.tallyMode = false
	if e.cfg.Engine != EngineSoA || len(e.procs) == 0 {
		return
	}
	kb, ok := e.procs[0].(KernelBuilder)
	if !ok {
		return
	}
	k := kb.BuildKernel(e.procs)
	if k == nil {
		return
	}
	e.kernel = k
	e.tallyMode = true
	n := e.cfg.N
	e.cols.resize(n)
	for i := 0; i < n; i++ {
		e.cols.Ones[i] = 0
		e.cols.Zeros[i] = 0
		e.cols.Count[i] = 0
		e.cols.MaskZero[i] = 0
		e.cols.MaskOne[i] = 0
	}
	e.act.Reset(n)
	for v := int64(0); v < int64(len(e.classTab)); v++ {
		one, mz, mo := k.KernelClass(v)
		e.classTab[v] = soaClass{one: one, mz: mz, mo: mo}
	}
}

// leaveTallyMode syncs every process object from the kernel and drops to
// the object path permanently (used when a Byzantine forgery arrives:
// corruption needs per-receiver payloads, which columns cannot carry).
// Tally mode left the object path's buffers empty; they are sized here,
// and the inboxes grow as the next Phase B fills them.
func (e *Execution) leaveTallyMode() {
	for i, p := range e.procs {
		e.kernel.KernelSync(i, p)
	}
	e.tallyMode = false
	e.sizeObjectBuffers(false)
}

// classify returns the memoized payload class.
func (e *Execution) classify(p int64) soaClass {
	if p >= 0 && p < int64(len(e.classTab)) {
		return e.classTab[p]
	}
	one, mz, mo := e.kernel.KernelClass(p)
	return soaClass{one: one, mz: mz, mo: mo}
}

// deliverSlot copies mask (nil = deliver to no one) into victim v's
// persistent scratch BitSet and returns it. This replaces the per-plan
// Deliver.Clone() allocation: the engine owns the slot, so the
// adversary is free to reuse or mutate its own mask after FinishRound
// returns. TestFinishRoundDeliverAllocs pins the zero-alloc property.
func (e *Execution) deliverSlot(v int, mask *BitSet) *BitSet {
	s := e.deliverScratch[v]
	if s == nil {
		s = NewBitSet(e.cfg.N)
		e.deliverScratch[v] = s
	}
	if mask != nil {
		s.CopyFrom(mask)
	} else {
		s.Reset(e.cfg.N)
	}
	return s
}

// groupSlot copies mask into the gi-th per-group scratch slot. The
// columnar path copies one slot per distinct crash-plan mask, so the
// adversary can reuse its mask buffers after FinishRound returns (the
// ReusableAdversary contract) without the engine paying a per-victim
// copy.
func (e *Execution) groupSlot(gi int, mask *BitSet) *BitSet {
	for gi >= len(e.groupScratch) {
		e.groupScratch = append(e.groupScratch, NewBitSet(e.cfg.N))
	}
	s := e.groupScratch[gi]
	s.CopyFrom(mask)
	return s
}

// finishRoundTally is the columnar Phase B: apply the crash and omission
// plans under the object path's victim rule, then compute every eligible
// receiver's next-round tally as (full-broadcast totals) − (own
// broadcast) + (per-mask group contributions), instead of appending n²
// inbox entries.
func (e *Execution) finishRoundTally(plan RoundPlan) error {
	r := e.round + 1
	obs := e.cfg.Observer
	met := e.cfg.Metrics

	// Victim application: ApplyVictims, exactly as on the object path.
	// Victims whose final message still reaches someone are grouped by
	// the adversary's original mask pointer; each distinct
	// mask is copied into engine scratch ONCE per group, so a mass-crash
	// plan sharing one mask costs O(n/64) total, not O(victims·n/64).
	// Victims delivering to no one (not sending, or a nil mask) join no
	// group — there is no per-receiver Phase B to feed here. The same
	// grouping serves crashes (against the T budget) and
	// omission demotions (against the fault budget); the groups
	// accumulate across both passes.
	groups := e.victimGroups[:0]
	down := func(p CrashPlan, crash bool) {
		v := p.Victim
		e.charge(v, crash)
		delivered := 0
		if e.sending[v] && p.Deliver != nil {
			gi := -1
			for g := range groups {
				if groups[g].orig == p.Deliver {
					gi = g
					break
				}
			}
			if gi < 0 {
				cp := e.groupSlot(len(groups), p.Deliver)
				groups = append(groups, soaGroup{
					orig: p.Deliver, mask: cp, delivered: cp.Count(),
				})
				gi = len(groups) - 1
			}
			g := &groups[gi]
			delivered = g.delivered
			c := e.classify(e.payloads[v])
			g.cnt++
			if c.one {
				g.ones++
			} else {
				g.zeros++
			}
			if c.mz {
				g.mz++
			}
			if c.mo {
				g.mo++
			}
		}
		if obs != nil {
			obs.OnCrash(r, v, delivered)
		}
	}
	ApplyVictims(plan.Crashes, e.alive, e.corrupt, e.crashed+e.corrupted, e.cfg.T,
		func(p CrashPlan) { down(p, true) })
	ApplyVictims(plan.Omissions, e.alive, e.corrupt, e.faults.CrashEquivalent(), e.cfg.FaultBudget,
		func(p CrashPlan) { down(p, false) })
	e.victimGroups = groups

	// Eligible receivers — alive && !halted && !corrupt after this
	// round's crashes, exactly the set the object path's delivery loop
	// appends to — are the live set itself: charge removed the victims
	// from it, and halting comes after. The full-broadcast totals cover
	// the surviving senders, which are live (only Phase-A processes send);
	// this round's victims are added back mask-wise by their groups.
	lw := e.live.words
	sending := e.sending
	var fullOnes, fullZeros, fullMZ, fullMO, fullCnt int32
	for wi, w := range lw {
		base := wi << 6
		for w != 0 {
			j := base + bits.TrailingZeros64(w)
			w &= w - 1
			if !sending[j] {
				continue
			}
			c := e.classify(e.payloads[j])
			fullCnt++
			if c.one {
				fullOnes++
			} else {
				fullZeros++
			}
			if c.mz {
				fullMZ++
			}
			if c.mo {
				fullMO++
			}
		}
	}

	// Seed each eligible receiver's tally with the totals minus its own
	// broadcast (processes never receive their own message), sweeping
	// the live words so decimated rounds cost O(survivors + n/64).
	// Ineligible slots keep stale columns: eligibility is monotone
	// (alive/halted/corrupt never revert), so the kernel never reads
	// them again.
	deliveredBefore := e.messages
	for wi, w := range lw {
		base := wi << 6
		for w != 0 {
			j := base + bits.TrailingZeros64(w)
			w &= w - 1
			ones, zeros, mz, mo, cnt := fullOnes, fullZeros, fullMZ, fullMO, fullCnt
			if sending[j] {
				c := e.classify(e.payloads[j])
				cnt--
				if c.one {
					ones--
				} else {
					zeros--
				}
				if c.mz {
					mz--
				}
				if c.mo {
					mo--
				}
			}
			e.cols.Ones[j] = ones
			e.cols.Zeros[j] = zeros
			e.cols.Count[j] = cnt
			e.cols.MaskZero[j] = mz
			e.cols.MaskOne[j] = mo
			e.messages += int(cnt)
		}
	}

	// Apply each crash group to the eligible receivers inside its mask
	// with one word sweep (mask ∧ live), however many victims share the
	// mask.
	for gi := range groups {
		g := &groups[gi]
		mw := g.mask.words
		lim := len(mw)
		if len(lw) < lim {
			lim = len(lw)
		}
		for wi := 0; wi < lim; wi++ {
			w := mw[wi] & lw[wi]
			base := wi << 6
			for w != 0 {
				j := base + bits.TrailingZeros64(w)
				w &= w - 1
				e.cols.Ones[j] += g.ones
				e.cols.Zeros[j] += g.zeros
				e.cols.Count[j] += g.cnt
				e.cols.MaskZero[j] += g.mz
				e.cols.MaskOne[j] += g.mo
				e.messages += int(g.cnt)
			}
		}
	}
	if met != nil {
		met.Messages.Add(e.cfg.MetricsShard, uint64(e.messages-deliveredBefore))
	}

	e.finishBookkeeping(r)
	return nil
}

// procDecided and procStopped route decision/halt queries to the kernel
// in tally mode and to the process objects otherwise.
func (e *Execution) procDecided(i int) (int, bool) {
	if e.tallyMode {
		return e.kernel.KernelDecided(i)
	}
	return e.procs[i].Decided()
}

func (e *Execution) procStopped(i int) bool {
	if e.tallyMode {
		return e.kernel.KernelStopped(i)
	}
	return e.procs[i].Stopped()
}

// ConsensusValue returns the surviving processes' common decision value
// (-1 if none survived or agreement failed) without allocating — the
// accessor form of Result().DecidedValue().
func (e *Execution) ConsensusValue() int {
	if e.tallyMode {
		return e.kernel.KernelConsensus(e.alive, e.corrupt)
	}
	v := -1
	for i := range e.procs {
		if !e.alive[i] || e.corrupt[i] {
			continue
		}
		d, ok := e.procDecided(i)
		if !ok {
			continue
		}
		if v == -1 {
			v = d
		} else if v != d {
			return -1
		}
	}
	return v
}

// HaltRound returns the round by which every surviving process had
// halted, with Result's vacuous-termination convention (no survivors and
// no halt round recorded → the current round), without allocating.
func (e *Execution) HaltRound() int {
	if e.haltRound != 0 {
		return e.haltRound
	}
	for i := range e.procs {
		if e.alive[i] && !e.corrupt[i] {
			return 0
		}
	}
	return e.round
}
