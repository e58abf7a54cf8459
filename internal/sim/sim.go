// Package sim implements the synchronous distributed system model of
// Bar-Joseph & Ben-Or (PODC 1998), Section 3.1: n processes computing in
// lock-step rounds, each round split into Phase A (local coin flips and
// computation, producing the round's outgoing message) and Phase B
// (message exchange), under the control of a fail-stop,
// adaptive-strongly-dynamic, computationally unbounded, full-information
// adversary.
//
// The adversary is consulted after Phase A of every round, when it can
// inspect every process's local state and the messages they are about to
// send, and may then crash processes mid-exchange so that only a chosen
// subset of a victim's round-r messages is delivered. A crashed process
// never sends again. Communication links are perfectly reliable: every
// message not censored by a crash is delivered at the end of the round.
//
// The engine is deliberately sequential and deterministic: given a seed,
// an execution is exactly reproducible, and executions can be cloned
// mid-round, which is what the Monte-Carlo valency analysis in
// internal/valency uses to implement the paper's look-ahead adversary.
package sim

import (
	"errors"
	"fmt"

	"synran/internal/metrics"
	"synran/internal/rng"
)

// Process is one participant's protocol state machine. Implementations
// must be deterministic given their rng stream and inbox sequence, and
// must support deep copying via Clone so executions can be snapshotted.
type Process interface {
	// Round executes Phase A of round r (r starts at 1): consume the
	// messages delivered at the end of the previous round (nil for r==1)
	// and return the payload this process broadcasts in round r.
	// send=false means the process broadcasts nothing this round.
	// The inbox slice is only valid for the duration of the call.
	Round(r int, inbox []Recv) (payload int64, send bool)

	// Decided reports the process's irrevocable decision, if any.
	Decided() (value int, ok bool)

	// Stopped reports whether the process has halted voluntarily: it will
	// not be scheduled again, and counts as non-faulty.
	Stopped() bool

	// Clone returns a deep copy of the process state.
	Clone() Process
}

// Reseeder is implemented by processes whose future coin flips can be
// replaced with a fresh stream. Execution.ReseedProcesses uses it so
// Monte-Carlo rollouts of a cloned execution sample independent futures
// (a plain Clone would replay the exact same coins).
type Reseeder interface {
	Reseed(seed uint64)
}

// Recv is one received message: the sender and its broadcast payload.
// Processes do not receive their own broadcast; protocols that need it
// (all of the ones in this repository) account for their own value
// locally, matching the paper's "including b_i" convention.
type Recv struct {
	From    int
	Payload int64
}

// CrashPlan instructs the engine to fail one process during Phase B of
// the current round. Deliver selects which receivers still get the
// victim's round message; nil means the message reaches no one. A
// victim whose Deliver set is full crashes "silently": everyone hears
// its last message, but it is dead from the next round on.
type CrashPlan struct {
	Victim  int
	Deliver *BitSet
}

// RoundPlan is everything an adversary does in one round. Crashes fail
// victims against the crash budget T. Omissions silence victims' outgoing
// links from this round on, with the same partial-delivery semantics as
// a crash, and demote them against Config.FaultBudget. Forgeries corrupt
// their senders (against T) and dictate what they send. FinishRound
// applies forgeries, then crashes, then omissions.
type RoundPlan struct {
	Crashes, Omissions []CrashPlan
	Forgeries          []Forgery
}

// View is the full-information snapshot handed to the adversary after
// Phase A of a round. It is safe by contract: per-process state is
// exposed only through read-only accessor methods (IsAlive, Payload,
// ...), never as raw slices, so adversaries cannot mutate engine state
// and cannot accidentally retain live buffers — which is what lets the
// engine reuse one View (and its backing arrays) across rounds and
// snapshots. A View is valid only for the duration of the Plan or
// OnRound call it is passed to; to experiment with hypothetical futures,
// snapshot Exec (Clone, CloneInto, or a SnapshotArena) and drive the
// snapshot.
type View struct {
	Round  int
	N      int
	T      int
	Budget int // crashes the adversary may still perform
	// Exec is the live execution (full-information model: the adversary
	// may inspect it, including Process state machines, but must only
	// drive snapshots of it).
	Exec *Execution
	// Rng is the adversary's private random stream; draws advance it.
	Rng *rng.Stream

	alive    []bool
	halted   []bool
	corrupt  []bool
	sending  []bool
	payloads []int64 // Phase-A outputs; meaningful where sending is true
	procs    []Process

	// Iteration index over the columns above: live holds the processes
	// that are alive, not halted and not corrupt, aliveSet the alive ones,
	// nAlive their number. The engine hands out its own incrementally
	// kept sets; NewView builds them from the slices.
	live, aliveSet *BitSet
	nAlive         int
}

// ViewState is the explicit form of a View, used by NewView. The engine
// assembles its Views internally; NewView exists for alternative runners
// (internal/netsim) and adversary unit tests that need synthetic views.
type ViewState struct {
	Round, N, T, Budget int
	Alive               []bool
	Halted              []bool
	Corrupt             []bool
	Sending             []bool
	Payloads            []int64
	Procs               []Process
	Exec                *Execution
	Rng                 *rng.Stream
}

// NewView assembles a View over the given state. The slices are aliased,
// not copied: the caller must not mutate them while the View is in use.
// Nil slices are read as all-false (all-zero for Payloads). The live and
// alive index behind ForEachLive, ForEachAlive and AliveCount is built
// here, in one O(n) pass, so synthetic views iterate exactly as engine
// views do.
func NewView(s ViewState) *View {
	v := &View{
		Round:    s.Round,
		N:        s.N,
		T:        s.T,
		Budget:   s.Budget,
		Exec:     s.Exec,
		Rng:      s.Rng,
		alive:    s.Alive,
		halted:   s.Halted,
		corrupt:  s.Corrupt,
		sending:  s.Sending,
		payloads: s.Payloads,
		procs:    s.Procs,
		live:     NewBitSet(len(s.Alive)),
		aliveSet: NewBitSet(len(s.Alive)),
	}
	for i, a := range s.Alive {
		if !a {
			continue
		}
		v.aliveSet.Set(i)
		v.nAlive++
		if !v.IsHalted(i) && !v.IsCorrupt(i) {
			v.live.Set(i)
		}
	}
	return v
}

// IsAlive reports whether process i has not crashed. Read-only; never
// aliases engine state beyond the View's validity window.
func (v *View) IsAlive(i int) bool { return v.alive != nil && v.alive[i] }

// IsHalted reports whether process i stopped voluntarily (halted
// processes are alive and non-faulty).
func (v *View) IsHalted(i int) bool { return v.halted != nil && v.halted[i] }

// IsCorrupt reports whether process i has been corrupted by a Byzantine
// adversary (always false in the fail-stop model).
func (v *View) IsCorrupt(i int) bool { return v.corrupt != nil && v.corrupt[i] }

// IsSending reports whether process i broadcasts a message this round.
func (v *View) IsSending(i int) bool { return v.sending != nil && v.sending[i] }

// Payload returns process i's Phase-A output for this round; it is
// meaningful only where IsSending(i) is true.
func (v *View) Payload(i int) int64 {
	if v.payloads == nil {
		return 0
	}
	return v.payloads[i]
}

// Proc exposes process i's state machine (full-information model). The
// returned Process is LIVE engine state: adversaries may inspect it but
// must not call Round on it — drive a snapshot of Exec instead.
func (v *View) Proc(i int) Process {
	if v.Exec != nil {
		// Route through the execution so the SoA engine can sync the
		// object from its columnar kernel before handing it out.
		return v.Exec.Process(i)
	}
	if v.procs == nil {
		return nil
	}
	return v.procs[i]
}

// AliveCount returns the number of non-crashed processes (halted
// processes are alive: they stopped voluntarily and are non-faulty).
// It is O(1): the count is kept with the alive index.
func (v *View) AliveCount() int { return v.nAlive }

// ForEachLive calls fn(i), in ascending order, for every process that is
// alive, not halted and not corrupt — the processes that ran Phase A this
// round, and so the only ones that can be sending. It costs O(live +
// n/64). fn must not retain or mutate anything the View exposes.
func (v *View) ForEachLive(fn func(i int)) {
	if v.live != nil {
		v.live.ForEachIn(fn)
	}
}

// ForEachAlive calls fn(i), in ascending order, for every process that
// has not crashed, halted and corrupt ones included, at O(alive + n/64).
func (v *View) ForEachAlive(fn func(i int)) {
	if v.aliveSet != nil {
		v.aliveSet.ForEachIn(fn)
	}
}

// Adversary is a (possibly adaptive, full-information) fault strategy.
type Adversary interface {
	// Name identifies the strategy in traces and experiment tables.
	Name() string
	// Plan is invoked once per round after Phase A and returns the
	// round's whole attack. Crash and omission plans that exceed their
	// budget, name dead or corrupt processes, or repeat a victim are
	// skipped in order (see ApplyVictims).
	Plan(v *View) RoundPlan
	// Clone returns a deep copy, used when snapshotting executions.
	Clone() Adversary
}

// ReusableAdversary is an optional Adversary extension for rollout
// pools. ResetAdversary restores factory-fresh planning behavior while
// keeping internal scratch storage, so one instance can serve many
// Monte-Carlo rollouts without per-rollout allocation; internal/valency
// caches one instance per (worker, pool entry) and resets it between
// rollouts. Plan results from a reusable adversary are only guaranteed
// valid until its next Plan call — the engine copies delivery masks
// into its own scratch during FinishRound, satisfying that contract.
type ReusableAdversary interface {
	Adversary
	ResetAdversary()
}

// Observer receives engine events; useful for tracing and statistics.
type Observer interface {
	OnRound(r int, view *View)
	OnCrash(r int, victim int, delivered int)
	OnDecide(r int, p int, value int)
	OnHalt(r int, p int)
}

// Config describes one execution.
type Config struct {
	N         int // number of processes
	T         int // adversary crash budget, 0 <= T <= N
	MaxRounds int // safety valve; 0 selects a generous default
	// Engine selects the round-loop backend: EngineObject (or "") is the
	// object-per-process engine; EngineSoA enables the columnar
	// structure-of-arrays fast path for kernel-capable process vectors
	// (see soa.go). The two are behaviorally identical — the conformance
	// differential lane pins byte-equality — so Engine is purely a
	// performance switch.
	Engine string
	// Observer, when non-nil, receives this execution's engine events.
	// Observers watch exactly one execution: snapshots (Clone, CloneInto,
	// SnapshotArena) never carry the observer, so look-ahead rollouts of
	// a cloned execution cannot re-fire callbacks for hypothetical
	// futures. TestCloneDropsObserver pins this contract.
	Observer Observer
	// Metrics, when non-nil, receives this execution's instrument
	// emissions (rounds, deliveries, decisions, crashes), tagged with
	// MetricsShard — the trial worker's id — so concurrent workers never
	// contend. Snapshots drop Metrics for the same reason they drop the
	// Observer: look-ahead rollouts must not recount hypothetical futures.
	Metrics      *metrics.Engine
	MetricsShard int
	// FaultBudget bounds the demotions a RoundPlan's Omissions may charge
	// (see FinishRound): a budget of k absorbs exactly k demotions, and
	// further omission plans are skipped deterministically.
	// It is the lock-step mirror of netsim.Options.FaultBudget, kept
	// distinct from the crash budget T exactly as the netsim runner keeps
	// chaos faults distinct from adversary crashes.
	FaultBudget int
}

// DefaultMaxRounds returns the round cap used when Config.MaxRounds is
// zero: comfortably above t+1, the worst deterministic bound.
func DefaultMaxRounds(n int) int { return 20*n + 200 }

// Execution errors.
var (
	// ErrMaxRounds reports that the execution hit the safety valve before
	// every surviving process decided. For a correct protocol this means
	// the adversary (or the round cap) is pathological.
	ErrMaxRounds = errors.New("sim: execution exceeded MaxRounds before termination")
)

// Faults accounts for the non-crash faults an execution absorbed.
// Dropped / Duplicated / Delayed count injected message faults the
// chaos-hardened runner masked or converted; Stalled counts injected
// process stalls; Panics counts process panics isolated by the runner;
// Demoted counts processes converted to crash faults — by the hardened
// runner after missed round deadlines or unrecoverable omissions, or by
// an adversary's RoundPlan.Omissions on any engine. Panics +
// Demoted are the crash-equivalent faults charged against the fault
// budget (distinct from the adversary's T).
type Faults struct {
	Dropped    int
	Duplicated int
	Delayed    int
	Stalled    int
	Panics     int
	Demoted    int
}

// CrashEquivalent returns the number of faults that consumed a process
// (the quantity that must stay within the fault budget, and that adds to
// the adversary's crashes when checking the ≤ t resilience condition).
func (f Faults) CrashEquivalent() int { return f.Panics + f.Demoted }

// Total returns the total number of injected fault events absorbed.
func (f Faults) Total() int {
	return f.Dropped + f.Duplicated + f.Delayed + f.Stalled + f.Panics + f.Demoted
}

// Result summarizes a finished execution.
type Result struct {
	// DecideRounds is the number of rounds until every surviving process
	// had decided — the complexity measure of the paper.
	DecideRounds int
	// HaltRounds is the number of rounds until every surviving process
	// had halted (SynRan processes keep echoing briefly after deciding).
	HaltRounds int
	// Crashes is the number of processes the adversary failed.
	Crashes int
	// Messages is the total number of messages delivered — the message
	// complexity of the execution.
	Messages int
	// Survivors is the number of non-faulty processes.
	Survivors int
	// Decisions[i] is process i's decision; valid where Decided[i].
	Decisions []int
	Decided   []bool
	// Inputs echoes the initial values, for validity checking.
	Inputs []int
	// Agreement: all surviving processes decided, and on the same value.
	Agreement bool
	// Validity: if all inputs were v, every decision is v.
	Validity bool
	// Faults accounts for non-crash faults absorbed during the run:
	// chaos faults on the hardened runner, demotions from an adversary's
	// RoundPlan.Omissions on any engine.
	Faults Faults
	// FaultNotes carries structured annotations for isolated failures
	// (one line per recovered panic / demotion), newest last.
	FaultNotes []string
	// Partial marks a gracefully degraded run: the runner gave up (fault
	// budget exhausted or MaxRounds hit) and this Result summarizes the
	// execution up to that point. Partial results accompany a typed error.
	Partial bool
}

// DecidedValue returns the common decision value, or -1 if no process
// survived (vacuous agreement) or agreement failed.
func (r *Result) DecidedValue() int {
	v := -1
	for i, ok := range r.Decided {
		if !ok {
			continue
		}
		if v == -1 {
			v = r.Decisions[i]
		} else if v != r.Decisions[i] {
			return -1
		}
	}
	return v
}

// Execution is a running (or finished) instance of the model. Create one
// with NewExecution, then drive it with Run, or step it manually with
// StepPhaseA/FinishRound for adversary look-ahead.
type Execution struct {
	cfg    Config
	procs  []Process
	inputs []int
	advRng *rng.Stream

	alive       []bool
	halted      []bool
	corrupt     []bool
	decidedSeen []bool
	crashed     int
	corrupted   int // true entries of corrupt
	faults      Faults
	forged      map[int]*Forgery

	// Live-set index, kept where the columns above change (charge,
	// applyForgeries, finishBookkeeping) so no round step scans all n
	// processes: live is alive ∧ ¬halted ∧ ¬corrupt and aliveSet mirrors
	// alive. haltedUndecided counts the alive, uncorrupted, halted
	// processes that never decided; with the live walk's undecided count
	// it answers "has every correct process decided" without visiting
	// halted ones. TestLiveSetInvariant pins all three against a recount.
	live            BitSet
	aliveSet        BitSet
	haltedUndecided int

	round      int // last completed round
	phaseAOpen bool

	payloads []int64
	sending  []bool
	deliver  []*BitSet // per-sender override for the open round; nil = all

	inboxes [][]Recv
	scratch [][]Recv // double buffer for inbox construction

	decideRound int // first round after which all survivors had decided
	haltRound   int
	messages    int // deliveries so far

	viewBuf View // reusable adversary view; rebuilt by view() each round

	// deliverScratch[v] is victim v's persistent delivery-mask slot; both
	// engines copy crash-plan masks into it instead of cloning per plan.
	deliverScratch []*BitSet

	// SoA fast-path state (Engine == EngineSoA with a kernel-capable
	// process vector; see soa.go). While tallyMode is set, the process
	// objects in procs are stale — the kernel holds the truth — and the
	// Process accessor syncs them on demand.
	tallyMode    bool
	kernel       TallyKernel
	cols         TallyColumns
	act          BitSet // live as of the last Phase A
	victimGroups []soaGroup
	groupScratch []*BitSet // per-group mask copies: one per distinct plan mask, not per victim
	classTab     [8]soaClass
}

// NewExecution validates the configuration and assembles an execution.
// procs[i] receives inputs[i]; advSeed seeds the stream exposed to the
// adversary through View.Rng.
func NewExecution(cfg Config, procs []Process, inputs []int, advSeed uint64) (*Execution, error) {
	e := &Execution{}
	if err := e.Reset(cfg, procs, inputs, advSeed); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset reinitializes the execution to round zero for a new run,
// validating exactly as NewExecution would, but reusing every
// per-process buffer (bools, payloads, inboxes, scratch, delivery masks,
// the adversary rng) already owned by the receiver. Resetting a zero
// Execution is equivalent to NewExecution. The previous procs slice is
// replaced by the given one; all other state is overwritten in place.
func (e *Execution) Reset(cfg Config, procs []Process, inputs []int, advSeed uint64) error {
	n := cfg.N
	if n <= 0 {
		return fmt.Errorf("sim: N = %d, want > 0", n)
	}
	if len(procs) != n {
		return fmt.Errorf("sim: %d processes for N = %d", len(procs), n)
	}
	if len(inputs) != n {
		return fmt.Errorf("sim: %d inputs for N = %d", len(inputs), n)
	}
	if cfg.T < 0 || cfg.T > n {
		return fmt.Errorf("sim: T = %d out of [0, %d]", cfg.T, n)
	}
	for i, x := range inputs {
		if x != 0 && x != 1 {
			return fmt.Errorf("sim: input[%d] = %d, want 0 or 1", i, x)
		}
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds(n)
	}
	if err := ValidEngine(cfg.Engine); err != nil {
		return err
	}
	e.cfg = cfg
	e.procs = procs
	e.inputs = append(e.inputs[:0], inputs...)
	if e.advRng == nil {
		e.advRng = rng.New(advSeed)
	} else {
		e.advRng.Reseed(advSeed)
	}
	e.alive = resizeBools(e.alive, n)
	e.halted = resizeBools(e.halted, n)
	e.corrupt = resizeBools(e.corrupt, n)
	e.decidedSeen = resizeBools(e.decidedSeen, n)
	for i := range e.alive {
		e.alive[i] = true
		e.halted[i] = false
		e.corrupt[i] = false
		e.decidedSeen[i] = false
	}
	e.live.Reset(n)
	e.live.Fill()
	e.aliveSet.Reset(n)
	e.aliveSet.Fill()
	e.haltedUndecided = 0
	e.crashed = 0
	e.corrupted = 0
	e.faults = Faults{}
	e.forged = nil
	e.round = 0
	e.phaseAOpen = false
	e.payloads = resizeInt64s(e.payloads, n)
	e.sending = resizeBools(e.sending, n)
	for i := range e.payloads {
		e.payloads[i] = 0
		e.sending[i] = false
	}
	e.enterTallyMode()
	if e.tallyMode {
		e.dropObjectBuffers()
	} else {
		e.sizeObjectBuffers(true)
	}
	e.decideRound = 0
	e.haltRound = 0
	e.messages = 0
	e.viewBuf = View{}
	return nil
}

// sizeObjectBuffers gives the object path its per-process buffers:
// delivery overrides (all nil), victims' mask slots and empty inboxes,
// reusing whatever storage the receiver already owns. With preallocate
// set, as for an object-path Reset, a missing inbox gets capacity n up
// front. The Byzantine fall-back out of tally mode passes false, because
// at n = 10^6 that n² reservation alone would be ~16 GB, and lets the
// inboxes grow as they fill; CloneInto passes false and fills them with
// the source's.
func (e *Execution) sizeObjectBuffers(preallocate bool) {
	n := e.cfg.N
	e.deliver = resizeMasks(e.deliver, n)
	e.deliverScratch = resizeMasks(e.deliverScratch, n)
	for i := range e.deliver {
		e.deliver[i] = nil
	}
	e.inboxes = resizeRecvBufs(e.inboxes, n)
	e.scratch = resizeRecvBufs(e.scratch, n)
	for i := 0; i < n; i++ {
		e.inboxes[i] = resetRecvBuf(e.inboxes[i], n, preallocate)
		e.scratch[i] = resetRecvBuf(e.scratch[i], n, preallocate)
	}
}

// dropObjectBuffers empties the object path's buffers for an execution
// in tally mode, which never reads them. Their storage stays behind the
// zero length, so a later object run or fall-back reuses it.
func (e *Execution) dropObjectBuffers() {
	e.deliver = e.deliver[:0]
	e.deliverScratch = e.deliverScratch[:0]
	e.inboxes = e.inboxes[:0]
	e.scratch = e.scratch[:0]
}

// resetRecvBuf empties one inbox buffer, allocating capacity n for a
// missing one only when preallocate is set.
func resetRecvBuf(b []Recv, n int, preallocate bool) []Recv {
	if b == nil && preallocate {
		return make([]Recv, 0, n)
	}
	return b[:0]
}

// resizeBools returns s with length n, reusing its storage when
// possible. Contents are unspecified; callers overwrite every element.
func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// resizeInt64s is resizeBools for payload vectors.
func resizeInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// resizeMasks is resizeBools for delivery-mask vectors; grown tails keep
// their previous *BitSet values (possibly nil) for later reuse.
func resizeMasks(s []*BitSet, n int) []*BitSet {
	if cap(s) < n {
		grown := make([]*BitSet, n)
		copy(grown, s[:cap(s)])
		return grown
	}
	return s[:n]
}

// resizeRecvBufs returns s with length n, keeping every existing inbox
// buffer (and its capacity) so refills do not reallocate.
func resizeRecvBufs(s [][]Recv, n int) [][]Recv {
	if cap(s) < n {
		grown := make([][]Recv, n)
		copy(grown, s[:cap(s)])
		s = grown
	} else {
		s = s[:n]
	}
	return s
}

// Exported accessors follow one aliasing contract, which DESIGN.md's
// model section documents: scalar accessors (N, T, Round, Budget, Alive,
// Halted, Corrupt) return values and never alias engine state;
// slice-returning accessors (Inputs, Result) return fresh copies the
// caller owns; Process is the single deliberate exception — it hands out
// the LIVE state machine, because the full-information adversary is
// entitled to inspect it.

// N returns the number of processes. Read-only value.
func (e *Execution) N() int { return e.cfg.N }

// T returns the adversary's total crash budget. Read-only value.
func (e *Execution) T() int { return e.cfg.T }

// Round returns the index of the last completed round. Read-only value.
func (e *Execution) Round() int { return e.round }

// Budget returns the number of faults (crashes plus corruptions) the
// adversary may still introduce. Read-only value.
func (e *Execution) Budget() int { return e.cfg.T - e.crashed - e.corrupted }

// aliveCount is the number of alive processes: only accepted crash and
// omission victims die, and each one is counted in crashed or Demoted.
func (e *Execution) aliveCount() int { return e.cfg.N - e.crashed - e.faults.Demoted }

// Alive reports whether process p has not crashed. Read-only value.
func (e *Execution) Alive(p int) bool { return e.alive[p] }

// Halted reports whether process p stopped voluntarily. Read-only value.
func (e *Execution) Halted(p int) bool { return e.halted[p] }

// Inputs returns a copy of the initial values. The caller owns the
// returned slice; mutating it does not affect the execution.
func (e *Execution) Inputs() []int { return append([]int(nil), e.inputs...) }

// Process exposes process p's state machine (full-information model).
// The returned Process is LIVE engine state, not a copy: callers may
// inspect it but must not call Round on it — snapshot the execution and
// drive the snapshot instead. On the SoA engine the truth lives in the
// columnar kernel; the object is synced from it on demand so the
// full-information contract is engine-independent.
func (e *Execution) Process(p int) Process {
	if e.tallyMode {
		e.kernel.KernelSync(p, e.procs[p])
	}
	return e.procs[p]
}

// SetObserver replaces the execution's observer (nil detaches). Clones
// and snapshots deliberately drop the observer; the conformance replay
// lanes use SetObserver to re-attach one to a snapshot they are about to
// drive for real — turning the snapshot into a first-class execution
// whose events are compared against the original's.
func (e *Execution) SetObserver(o Observer) { e.cfg.Observer = o }

// Done reports whether the execution has terminated: every correct
// (non-crashed, non-corrupted) process has halted, or none remains.
func (e *Execution) Done() bool { return e.live.empty() }

// Clone returns a deep copy of the execution, including mid-round Phase-A
// state, process state machines, and the adversary rng stream. Driving
// the clone does not affect the original; identical inputs produce
// identical continuations. The clone never carries the Observer: observers
// watch one execution, not its hypothetical futures.
//
// Clone allocates a fresh Execution per call; repeated look-ahead
// rollouts from the same base state should use CloneInto or a
// SnapshotArena, which recycle the buffers instead.
func (e *Execution) Clone() *Execution {
	return e.CloneInto(nil)
}

// CloneInto overwrites dst with a deep copy of e, reusing every buffer
// dst already owns (bool/payload vectors, inboxes, scratch, delivery
// BitSets, the adversary rng, and — for processes implementing
// ProcessCopier — the process state machines themselves). A nil dst
// allocates a fresh Execution, making CloneInto(nil) identical to
// Clone. It returns dst.
//
// The copy is semantically indistinguishable from Clone: all state is
// overwritten, so a recycled dst produces byte-identical continuations
// to a fresh clone regardless of what it previously held. Like Clone,
// CloneInto drops the Observer. dst must not be the receiver itself.
func (e *Execution) CloneInto(dst *Execution) *Execution {
	if dst == nil {
		dst = &Execution{}
	}
	n := e.cfg.N
	dst.cfg = e.cfg
	dst.cfg.Observer = nil // observers watch one execution, not its clones
	dst.cfg.Metrics = nil  // ditto: rollouts must not recount events
	dst.inputs = append(dst.inputs[:0], e.inputs...)
	if dst.advRng == nil {
		dst.advRng = e.advRng.Clone()
	} else {
		dst.advRng.CopyFrom(e.advRng)
	}
	dst.alive = append(dst.alive[:0], e.alive...)
	dst.halted = append(dst.halted[:0], e.halted...)
	dst.corrupt = append(dst.corrupt[:0], e.corrupt...)
	dst.decidedSeen = append(dst.decidedSeen[:0], e.decidedSeen...)
	dst.crashed = e.crashed
	dst.corrupted = e.corrupted
	dst.live.CopyFrom(&e.live)
	dst.aliveSet.CopyFrom(&e.aliveSet)
	dst.haltedUndecided = e.haltedUndecided
	dst.faults = e.faults
	dst.round = e.round
	dst.phaseAOpen = e.phaseAOpen
	dst.payloads = append(dst.payloads[:0], e.payloads...)
	dst.sending = append(dst.sending[:0], e.sending...)
	dst.decideRound = e.decideRound
	dst.haltRound = e.haltRound
	dst.messages = e.messages

	if cap(dst.procs) < n {
		grown := make([]Process, n)
		copy(grown, dst.procs)
		dst.procs = grown
	} else {
		dst.procs = dst.procs[:n]
	}
	dst.tallyMode = e.tallyMode
	if e.tallyMode {
		// SoA fast path: the kernel holds the truth, so clone it (a few
		// flat column copies) instead of every process object. dst keeps
		// stale object shells — created once per slot — which Process()
		// syncs from the kernel on demand.
		if dst.kernel == nil || !e.kernel.KernelCopyInto(dst.kernel) {
			dst.kernel = e.kernel.KernelClone()
		}
		dst.cols.copyFrom(&e.cols)
		dst.act.CopyFrom(&e.act)
		dst.classTab = e.classTab
		for i, p := range e.procs {
			if dst.procs[i] == nil {
				dst.procs[i] = p.Clone()
			}
		}
	} else {
		for i, p := range e.procs {
			if d, ok := dst.procs[i].(ProcessCopier); ok && d.CopyFrom(p) {
				continue
			}
			dst.procs[i] = p.Clone()
		}
	}

	dst.forged = nil
	if e.forged != nil {
		dst.forged = make(map[int]*Forgery, len(e.forged))
		for k, f := range e.forged {
			fc := *f
			fc.PerReceiver = append([]int64(nil), f.PerReceiver...)
			dst.forged[k] = &fc
		}
	}

	if e.tallyMode {
		dst.dropObjectBuffers()
	} else {
		dst.sizeObjectBuffers(false)
		for i, src := range e.deliver {
			if src != nil {
				dst.deliver[i] = dst.deliverSlot(i, src)
			}
		}
		for i, in := range e.inboxes {
			dst.inboxes[i] = append(dst.inboxes[i], in...)
		}
	}

	dst.viewBuf = View{} // never alias the source's round buffers
	return dst
}

// ReseedProcesses replaces every process's (and the adversary view's)
// future randomness with fresh streams derived from seed. Use on clones
// before rollouts so each rollout samples an independent future.
func (e *Execution) ReseedProcesses(seed uint64) {
	var root rng.Stream
	root.Reseed(seed)
	if e.tallyMode {
		for i := range e.procs {
			e.kernel.KernelReseed(i, root.SplitSeed(uint64(i)))
		}
	} else {
		for i, p := range e.procs {
			if rs, ok := p.(Reseeder); ok {
				rs.Reseed(root.SplitSeed(uint64(i)))
			}
		}
	}
	e.advRng.Reseed(root.SplitSeed(uint64(len(e.procs))))
}

// StepPhaseA runs Phase A of the next round: every live, non-halted
// process consumes its inbox and produces its outgoing payload. It
// returns the adversary view for the round. It is an error to call it
// twice without FinishRound, or after termination.
func (e *Execution) StepPhaseA() (*View, error) {
	if e.phaseAOpen {
		return nil, errors.New("sim: StepPhaseA called with a round already open")
	}
	if e.Done() {
		return nil, errors.New("sim: StepPhaseA called on a finished execution")
	}
	r := e.round + 1
	e.forged = nil // forgeries are per round
	if e.tallyMode {
		// Only last round's leavers — its victims and halts, in the last
		// Phase-A set but no longer live — stop sending here: every other
		// non-live process stopped the round it left. Tally mode never
		// sets a delivery override, so deliver stays all nil.
		e.act.AndNotWith(&e.live)
		e.act.ForEachIn(func(i int) { e.sending[i] = false })
		e.act.CopyFrom(&e.live)
		e.kernel.KernelRound(r, &e.live, &e.cols, e.payloads, e.sending)
		e.phaseAOpen = true
		return e.view(r), nil
	}
	for i, p := range e.procs {
		e.deliver[i] = nil
		if !e.alive[i] || e.halted[i] || e.corrupt[i] {
			// Corrupted processes' honest state machines are frozen; the
			// adversary speaks for them via forgeries.
			e.sending[i] = false
			continue
		}
		var inbox []Recv
		if r > 1 {
			inbox = e.inboxes[i]
		}
		e.payloads[i], e.sending[i] = p.Round(r, inbox)
	}
	e.phaseAOpen = true
	return e.view(r), nil
}

// view assembles the adversary's full-information snapshot for round r
// in the execution's reusable view buffer. The same View value (and the
// engine slices it aliases) is recycled every round — which is safe
// because View exposes state through read-only accessors and is only
// valid for the duration of the adversary/observer call.
func (e *Execution) view(r int) *View {
	e.viewBuf = View{
		Round:    r,
		N:        e.cfg.N,
		T:        e.cfg.T,
		Budget:   e.Budget(),
		Exec:     e,
		Rng:      e.advRng,
		alive:    e.alive,
		halted:   e.halted,
		corrupt:  e.corrupt,
		sending:  e.sending,
		payloads: e.payloads,
		procs:    e.procs,
		live:     &e.live,
		aliveSet: &e.aliveSet,
		nAlive:   e.aliveCount(),
	}
	return &e.viewBuf
}

// ApplyVictims is the victim rule of every engine and runner, for crash
// and omission plans alike. It walks plans in order and skips a plan
// whose victim is out of range, dead, or corrupt; a victim repeated
// within the round is dead by its second plan. Once spent reaches budget
// it stops. Each accepted victim is marked dead in alive and handed to
// apply. corrupt may be nil where nothing can be corrupted.
func ApplyVictims(plans []CrashPlan, alive, corrupt []bool, spent, budget int, apply func(CrashPlan)) {
	for _, plan := range plans {
		v := plan.Victim
		if v < 0 || v >= len(alive) || !alive[v] || (corrupt != nil && corrupt[v]) {
			continue
		}
		if spent >= budget {
			return
		}
		alive[v] = false
		spent++
		apply(plan)
	}
}

// victimDown applies one accepted victim on the object path: it charges
// the ledger, keeps the victim's delivery mask for Phase B and reports
// the event. crash selects an adversary crash over an omission demotion.
func (e *Execution) victimDown(r int, p CrashPlan, crash bool) {
	v := p.Victim
	e.charge(v, crash)
	e.deliver[v] = e.deliverSlot(v, p.Deliver)
	if obs := e.cfg.Observer; obs != nil {
		delivered := 0
		if e.sending[v] {
			delivered = e.deliver[v].Count()
		}
		obs.OnCrash(r, v, delivered)
	}
}

// charge records one accepted victim v on both cores' ledger, live-set
// index and metrics: an adversary crash against T, or a demotion against
// the fault budget. ApplyVictims has already marked v dead.
func (e *Execution) charge(v int, crash bool) {
	e.leaveCorrect(v)
	e.aliveSet.Clear(v)
	m := e.cfg.Metrics
	if crash {
		e.crashed++
		if m != nil {
			m.CrashesAdversary.Inc(e.cfg.MetricsShard)
		}
		return
	}
	e.faults.Demoted++
	if m != nil {
		m.Demotions.Inc(e.cfg.MetricsShard)
	}
}

// leaveCorrect drops v, which is being crashed, demoted or corrupted,
// from the index of correct processes: the live set, and the
// halted-undecided count if v had halted without deciding.
func (e *Execution) leaveCorrect(v int) {
	e.live.Clear(v)
	if e.halted[v] {
		if _, ok := e.procDecided(v); !ok {
			e.haltedUndecided--
		}
	}
}

// FinishRound applies the adversary's round plan and performs Phase B
// (message delivery) of the open round, then updates decision and halt
// bookkeeping. Forgeries are applied first, then crashes, then
// omissions; that order is part of the cross-lane event-log contract
// the conformance harness diffs. Invalid crash and omission plans are
// skipped deterministically by ApplyVictims. The first plan carrying
// forgeries moves a SoA execution to the object path for good.
func (e *Execution) FinishRound(plan RoundPlan) error {
	if !e.phaseAOpen {
		return errors.New("sim: FinishRound called without an open round")
	}
	if len(plan.Forgeries) > 0 {
		if e.tallyMode {
			// Corruption needs per-receiver payloads, which tally columns
			// cannot carry: sync the process objects from the kernel and
			// run the object path from here on (dropping back is always
			// behavior-preserving, the reverse is not).
			e.leaveTallyMode()
		}
		e.applyForgeries(plan.Forgeries)
	}
	if e.tallyMode {
		return e.finishRoundTally(plan)
	}
	r := e.round + 1
	ApplyVictims(plan.Crashes, e.alive, e.corrupt, e.crashed+e.corrupted, e.cfg.T,
		func(p CrashPlan) { e.victimDown(r, p, true) })
	ApplyVictims(plan.Omissions, e.alive, e.corrupt, e.faults.CrashEquivalent(), e.cfg.FaultBudget,
		func(p CrashPlan) { e.victimDown(r, p, false) })

	// Phase B: build next-round inboxes.
	deliveredBefore := e.messages
	for j := range e.scratch {
		e.scratch[j] = e.scratch[j][:0]
	}
	for i := range e.procs {
		if e.corrupt[i] {
			// Byzantine sender: per-receiver forged payloads.
			if !e.alive[i] {
				continue
			}
			for j := range e.procs {
				if j == i || !e.alive[j] || e.halted[j] || e.corrupt[j] {
					continue
				}
				if payload, ok := e.forgedPayload(i, j); ok {
					e.scratch[j] = append(e.scratch[j], Recv{From: i, Payload: payload})
					e.messages++
				}
			}
			continue
		}
		if !e.sending[i] {
			continue
		}
		mask := e.deliver[i]
		for j := range e.procs {
			if j == i {
				continue
			}
			if mask != nil && !mask.Get(j) {
				continue
			}
			// Delivery to crashed, halted, or corrupted processes is
			// harmless; skip it to keep inboxes meaningful.
			if !e.alive[j] || e.halted[j] || e.corrupt[j] {
				continue
			}
			e.scratch[j] = append(e.scratch[j], Recv{From: i, Payload: e.payloads[i]})
			e.messages++
		}
	}
	e.inboxes, e.scratch = e.scratch, e.inboxes
	if m := e.cfg.Metrics; m != nil {
		m.Messages.Add(e.cfg.MetricsShard, uint64(e.messages-deliveredBefore))
	}

	e.finishBookkeeping(r)
	return nil
}

// finishBookkeeping updates decision and halt state at the end of round
// r. It is shared by both engines: a process's Round call for round r
// has completed, so its decided/stopped state reflects the paper's "end
// of round r" (its round-r message was already sent). Only the live set
// is walked, ascending, so events keep the process order of a full
// scan: a process outside it is crashed, corrupt or halted, and a halted
// one's state is frozen (haltedUndecided remembers whether it decided).
func (e *Execution) finishBookkeeping(r int) {
	obs, met := e.cfg.Observer, e.cfg.Metrics
	var undecided, haltedUndecided int
	if e.tallyMode && obs == nil && met == nil {
		// No per-process event attribution needed: one batch kernel call
		// replaces two interface dispatches per live process. decidedSeen
		// is left stale, which only observers and metrics read — both nil
		// here and fixed for the execution's lifetime.
		undecided, haltedUndecided = e.kernel.KernelBookkeep(&e.live, e.halted)
	} else {
		e.live.ForEachIn(func(i int) {
			v, ok := e.procDecided(i)
			if !ok {
				undecided++
			} else if !e.decidedSeen[i] {
				e.decidedSeen[i] = true
				if obs != nil {
					obs.OnDecide(r, i, v)
				}
				if met != nil {
					met.Decisions.Inc(e.cfg.MetricsShard)
				}
			}
			if e.procStopped(i) {
				e.halted[i] = true
				e.live.Clear(i)
				if !ok {
					haltedUndecided++
				}
				if obs != nil {
					obs.OnHalt(r, i)
				}
				if met != nil {
					met.Halts.Inc(e.cfg.MetricsShard)
				}
			}
		})
	}
	allDecided := undecided == 0 && e.haltedUndecided == 0
	e.haltedUndecided += haltedUndecided
	if e.decideRound == 0 && allDecided {
		e.decideRound = r
		if met != nil {
			met.DecideRounds.Observe(e.cfg.MetricsShard, uint64(r))
		}
	}
	if e.haltRound == 0 && e.live.empty() {
		e.haltRound = r
	}

	e.round = r
	e.phaseAOpen = false
	if met != nil {
		met.Rounds.Inc(e.cfg.MetricsShard)
	}
}

// Run drives the execution under adv until every surviving process has
// halted, or MaxRounds is exceeded (ErrMaxRounds), then summarizes it.
// Result-free callers (Monte-Carlo rollouts) use Drive directly.
func (e *Execution) Run(adv Adversary) (*Result, error) {
	if err := e.Drive(adv); err != nil {
		return nil, err
	}
	return e.Result(), nil
}

// Drive runs the execution under adv to completion exactly as Run does,
// but without assembling a Result. Monte-Carlo rollouts use it with the
// ConsensusValue / HaltRound accessors so look-ahead classification
// allocates nothing per rollout.
func (e *Execution) Drive(adv Adversary) error {
	for !e.Done() {
		if e.round >= e.cfg.MaxRounds {
			return fmt.Errorf("%w (protocol still running after %d rounds, adversary %q)",
				ErrMaxRounds, e.round, adv.Name())
		}
		if _, err := e.StepRound(adv); err != nil {
			return err
		}
	}
	return nil
}

// StepRound runs one whole round under adv: StepPhaseA, the observer's
// OnRound, adv.Plan on the round's view, then FinishRound with that plan.
// It returns the plan as Plan produced it. Drive is StepRound in a loop;
// every caller that steps an execution round by round uses it too, so no
// caller can drop part of an adversary's plan.
func (e *Execution) StepRound(adv Adversary) (RoundPlan, error) {
	v, err := e.StepPhaseA()
	if err != nil {
		return RoundPlan{}, err
	}
	if obs := e.cfg.Observer; obs != nil {
		obs.OnRound(v.Round, v)
	}
	plan := adv.Plan(v)
	return plan, e.FinishRound(plan)
}

// Result summarizes the execution so far. It is meaningful once Done.
func (e *Execution) Result() *Result {
	n := e.cfg.N
	res := &Result{
		DecideRounds: e.decideRound,
		HaltRounds:   e.haltRound,
		Crashes:      e.crashed,
		Messages:     e.messages,
		Faults:       e.faults,
		Decisions:    make([]int, n),
		Decided:      make([]bool, n),
		Inputs:       append([]int(nil), e.inputs...),
	}
	for i := range res.Decisions {
		res.Decisions[i] = -1
	}
	common := -1
	agreement := true
	for i := range e.procs {
		if !e.alive[i] || e.corrupt[i] {
			continue
		}
		res.Survivors++
		v, ok := e.procDecided(i)
		if !ok {
			agreement = false
			continue
		}
		res.Decisions[i] = v
		res.Decided[i] = true
		if common == -1 {
			common = v
		} else if common != v {
			agreement = false
		}
	}
	res.Agreement = agreement
	res.Validity = true
	// Byzantine-aware validity: only the CORRECT processes' inputs bind
	// the decision (standard weak validity; identical to the fail-stop
	// condition when nothing is corrupted). With no correct process the
	// inputs are not all the same, and validity holds vacuously.
	v0, allSame := -1, true
	for i, x := range e.inputs {
		if e.corrupt[i] {
			continue
		}
		if v0 == -1 {
			v0 = x
		} else if x != v0 {
			allSame = false
			break
		}
	}
	if allSame && v0 != -1 {
		for i := range e.procs {
			if res.Decided[i] && res.Decisions[i] != v0 {
				res.Validity = false
			}
		}
	}
	if res.Survivors == 0 {
		// Vacuous: no non-faulty process remains.
		res.Agreement = true
		if res.DecideRounds == 0 {
			res.DecideRounds = e.round
		}
		if res.HaltRounds == 0 {
			res.HaltRounds = e.round
		}
	}
	return res
}
