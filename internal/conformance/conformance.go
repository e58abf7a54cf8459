// Package conformance is the cross-engine differential harness: it runs
// the same (protocol, input vector, seed) through every engine lane the
// repository has — the sequential lock-step engine (internal/sim) on
// BOTH of its cores (the object-per-process path and the columnar SoA
// fast path, compared against each other on every case), the
// goroutine-per-process live runner on a zero-chaos substrate
// (internal/netsim), a Reset-reuse replay, and snapshot forks (Clone and
// SnapshotArena) taken mid-run — and requires that every lane produce
// the same event log, the same Result, and the same deterministic
// metrics report, field by field.
//
// Divergences are reported with the first differing event index and a
// minimal repro command line, so a failure localizes to "lane A and lane
// B disagree at event k of this exact seeded case" instead of "two hash
// digests differ". Pluggable invariant oracles (see oracles.go) ride the
// same observer hook and check the paper's safety properties —
// agreement, validity, decide-once, halt-after-decide, crash budget,
// wire payload well-formedness, metrics-vs-Result consistency — on
// every lane they watch.
//
// The asynchronous engine (internal/async) cannot be compared
// event-for-event with the round-based engines; async.go checks it by
// replay determinism (two runs of the same seeded case must deliver the
// same message sequence) and by the same invariant recomputations, with
// the SyncRound scheduler as the synchronous-round lane.
package conformance

import (
	"errors"
	"fmt"

	"synran"
	"synran/internal/metrics"
	"synran/internal/netsim"
	"synran/internal/scenario"
	"synran/internal/sim"
	"synran/internal/trials"
	"synran/internal/valency"
	"synran/internal/workload"
)

// Case identifies one seeded differential check: everything needed to
// reproduce the execution on every lane.
type Case struct {
	Protocol  string
	Adversary string
	Workload  string
	N, T      int
	Seed      uint64
	// Engine selects the lock-step engine backend for the sequential,
	// reset, and fork lanes ("" = object). Whatever the choice, CheckSync
	// also runs the OTHER backend as its own lane and compares the two
	// field by field — the SoA differential check rides every case.
	Engine string
	// MaxRounds overrides the engines' safety valve (0 = default).
	MaxRounds int
	// FaultBudget bounds the omission demotions an adversary's plans may
	// perform, on every lane (sim.Config.FaultBudget and
	// netsim.Options.FaultBudget get the same value).
	FaultBudget int
	// SnapRound is the round after which the fork lanes snapshot the
	// base execution; 0 picks half the sequential lane's halt round.
	SnapRound int
	// AllowUnsafe disables the agreement/validity oracles for cases that
	// deliberately exceed a protocol's resilience condition (Ben-Or under
	// a crash-heavy adversary with t >= n/2). Differential checking still
	// applies in full: every lane must be unsafe in exactly the same way.
	AllowUnsafe bool
	// SkipNetsim excludes the live-runner lane: look-ahead adversaries
	// (lowerbound, stepwise) need the lock-step engine's clonable Exec.
	SkipNetsim bool
}

// Name is the case's short identifier in reports.
func (c Case) Name() string {
	name := fmt.Sprintf("%s/%s/%s/n=%d/t=%d/seed=%d",
		c.Protocol, c.Adversary, c.Workload, c.N, c.T, c.Seed)
	if c.Engine != "" {
		name += "/engine=" + c.Engine
	}
	if c.FaultBudget > 0 {
		// Appended only when set so pre-omission fingerprints are stable.
		name += fmt.Sprintf("/budget=%d", c.FaultBudget)
	}
	return name
}

// Spec renders the case in the -one flag syntax ParseCase accepts —
// the scenario package's compact encoding of the case's Scenario view.
// A case no scenario can express (the async wrapper, a doctored test
// value) falls back to the identity rendering.
func (c Case) Spec() string {
	spec, err := scenario.Compact(c.Scenario())
	if err != nil {
		spec = fmt.Sprintf("protocol=%s,adversary=%s,workload=%s,n=%d,t=%d,seed=%d",
			c.Protocol, c.Adversary, c.Workload, c.N, c.T, c.Seed)
		if c.Engine != "" {
			spec += ",engine=" + c.Engine
		}
	}
	return spec
}

// Repro is the minimal reproduction command for the case.
func (c Case) Repro() string {
	return fmt.Sprintf("go run ./cmd/conformance -one %q", c.Spec())
}

// ParseCase parses the -one flag syntax emitted by Repro:
// "protocol=synran,adversary=splitvote,workload=half,n=5,t=2,seed=42".
// It delegates to the scenario package's compact codec on the harness's
// historical grid defaults (protocol synran, adversary none, workload
// half, n=5, t = the protocol default), so -one accepts exactly the
// validated scenario vocabulary.
func ParseCase(spec string) (Case, error) {
	s, err := scenario.ParseCompactWith(scenario.Scenario{
		Protocol: "synran", Adversary: "none", Workload: "half", N: 5, T: -1,
	}, spec)
	if err != nil {
		return Case{}, err
	}
	return FromScenario(s)
}

// normalize applies the per-protocol/per-adversary gates a constructed
// case needs: unsafe combinations and engines a lane cannot run.
func (c *Case) normalize() {
	// Look-ahead adversaries need the clonable Exec; the Byzantine
	// equivocator needs corruption. Neither exists in the live runner
	// (netsim rejects forgeries), so every lock-step-only adversary skips
	// the netsim lane (synran.LockStepOnly is the single source of truth
	// for the list).
	if synran.LockStepOnly(c.Adversary) {
		c.SkipNetsim = true
	}
	// An omission adversary with no budget can do nothing; mirror the
	// scenario layer's default of the full demotion allowance.
	if scenario.IsOmission(c.Adversary) && c.FaultBudget == 0 {
		c.FaultBudget = c.T
	}
	// Ben-Or's resilience condition is t < n/2 against an adaptive
	// crasher; the shared grid budget t=(n-1)/2 sits exactly on the
	// boundary, so adversarial cases may legitimately violate safety —
	// identically on every lane.
	if c.Protocol == synran.ProtocolBenOr && c.Adversary != synran.AdversaryNone {
		c.AllowUnsafe = true
	}
}

// Divergence is one cross-lane disagreement, with enough context to
// reproduce and localize it.
type Divergence struct {
	Case         Case
	LaneA, LaneB string
	// Field names what disagrees ("event", "Result.Messages", a metrics
	// counter, ...).
	Field string
	A, B  string
	// EventIndex is the first differing event log index, or -1 when the
	// divergence is not an event-log one.
	EventIndex int
}

// String renders the divergence with its repro command.
func (d Divergence) String() string {
	at := ""
	if d.EventIndex >= 0 {
		at = fmt.Sprintf(" at event %d", d.EventIndex)
	}
	return fmt.Sprintf("%s: %s vs %s disagree on %s%s: %s != %s\n  repro: %s",
		d.Case.Name(), d.LaneA, d.LaneB, d.Field, at, d.A, d.B, d.Case.Repro())
}

// event kinds in the comparable log.
const (
	eventRound = iota + 1
	eventSend
	eventCrash
	eventDecide
	eventHalt
)

// event is one comparable engine event. The meaning of a and b depends
// on kind: send = (sender, payload), crash = (victim, delivered),
// decide = (process, value), halt = (process, 0).
type event struct {
	kind int
	r    int
	a    int
	b    int64
}

// String renders the event for divergence reports.
func (e event) String() string {
	switch e.kind {
	case eventRound:
		return fmt.Sprintf("round(%d)", e.r)
	case eventSend:
		return fmt.Sprintf("send(r=%d, p%d, payload=%d)", e.r, e.a, e.b)
	case eventCrash:
		return fmt.Sprintf("crash(r=%d, p%d, delivered=%d)", e.r, e.a, e.b)
	case eventDecide:
		return fmt.Sprintf("decide(r=%d, p%d, value=%d)", e.r, e.a, e.b)
	case eventHalt:
		return fmt.Sprintf("halt(r=%d, p%d)", e.r, e.a)
	default:
		return fmt.Sprintf("event(kind=%d)", e.kind)
	}
}

// eventLog is the comparable form of an execution: a typed sequence of
// engine events, one entry per observer callback (plus one send entry
// per broadcasting process). Unlike the folded sim.Digest, two logs can
// be diffed to the first divergent event.
type eventLog struct {
	events []event
}

var _ sim.Observer = (*eventLog)(nil)

// OnRound implements sim.Observer: the round header plus one send event
// per broadcasting process, in process order.
func (l *eventLog) OnRound(r int, v *sim.View) {
	l.events = append(l.events, event{kind: eventRound, r: r})
	for i := 0; i < v.N; i++ {
		if v.IsSending(i) {
			l.events = append(l.events, event{kind: eventSend, r: r, a: i, b: v.Payload(i)})
		}
	}
}

// OnCrash implements sim.Observer.
func (l *eventLog) OnCrash(r, victim, delivered int) {
	l.events = append(l.events, event{kind: eventCrash, r: r, a: victim, b: int64(delivered)})
}

// OnDecide implements sim.Observer.
func (l *eventLog) OnDecide(r, p, value int) {
	l.events = append(l.events, event{kind: eventDecide, r: r, a: p, b: int64(value)})
}

// OnHalt implements sim.Observer.
func (l *eventLog) OnHalt(r, p int) {
	l.events = append(l.events, event{kind: eventHalt, r: r, a: p})
}

// Clone returns an independent copy; the fork lanes clone the base log
// at the snapshot point so each fork continues its own copy.
func (l *eventLog) Clone() *eventLog {
	return &eventLog{events: append([]event(nil), l.events...)}
}

// diffEvents returns the first index where the logs disagree, with
// renderings of both sides; index -1 means the logs are identical.
func diffEvents(a, b *eventLog) (int, string, string) {
	n := len(a.events)
	if len(b.events) < n {
		n = len(b.events)
	}
	for i := 0; i < n; i++ {
		if a.events[i] != b.events[i] {
			return i, a.events[i].String(), b.events[i].String()
		}
	}
	if len(a.events) != len(b.events) {
		return n, fmt.Sprintf("%d events", len(a.events)), fmt.Sprintf("%d events", len(b.events))
	}
	return -1, "", ""
}

// lane is one engine run of a case: its comparable event log, its
// Result, and (when metered) its deterministic metrics report.
type lane struct {
	name     string
	log      *eventLog
	res      *sim.Result
	timedOut bool
	rep      *metrics.Report
}

// checkedObserver bundles the event log with the oracle checkers so one
// cfg.Observer slot feeds both.
func checkedObserver(log *eventLog, checkers []Checker) sim.Observer {
	obs := sim.MultiObserver{log}
	for _, ch := range checkers {
		obs = append(obs, ch)
	}
	return obs
}

// newCheckers instantiates one checker per oracle.
func newCheckers(oracles []Oracle) []Checker {
	out := make([]Checker, len(oracles))
	for i, o := range oracles {
		out[i] = o.NewChecker()
	}
	return out
}

// finishCheckers collects every oracle's violations for one lane.
func finishCheckers(c Case, laneName string, oracles []Oracle, checkers []Checker, res *sim.Result, rep *metrics.Report) []string {
	var out []string
	for i, ch := range checkers {
		for _, v := range ch.Finish(c, res, rep) {
			out = append(out, fmt.Sprintf("%s [%s lane, oracle %s]: %s\n  repro: %s",
				c.Name(), laneName, oracles[i].Name(), v, c.Repro()))
		}
	}
	return out
}

// build constructs the protocol processes and adversary for the case.
// Look-ahead adversaries get a reduced rollout budget: the conformance
// grid checks engine agreement, not lower-bound quality.
func (c Case) build() ([]sim.Process, sim.Adversary, []int, error) {
	inputs, err := workload.Named(c.Workload, c.N, c.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	procs, err := synran.NewProtocol(c.Protocol, c.N, c.T, inputs, c.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	adv, err := synran.NewAdversaryBudget(c.Adversary, c.N, c.T, c.FaultBudget, c.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	switch a := adv.(type) {
	case *valency.LowerBound:
		a.Est.RolloutsPerAdversary = 6
	case *valency.Stepwise:
		a.Est.RolloutsPerAdversary = 6
	}
	return procs, adv, inputs, nil
}

func (c Case) config(obs sim.Observer, eng *metrics.Engine) sim.Config {
	return sim.Config{
		N: c.N, T: c.T, MaxRounds: c.MaxRounds, Engine: c.Engine,
		FaultBudget: c.FaultBudget,
		Observer:    obs, Metrics: eng, MetricsShard: 0,
	}
}

// finishLane normalizes a run's (res, err) pair: a MaxRounds timeout is
// a comparable outcome (every lane must time out identically), any other
// error is a harness failure.
func finishLane(name string, log *eventLog, res *sim.Result, err error, eng *metrics.Engine) (*lane, error) {
	l := &lane{name: name, log: log, res: res}
	if err != nil {
		if !errors.Is(err, sim.ErrMaxRounds) {
			return nil, fmt.Errorf("conformance: %s lane: %w", name, err)
		}
		l.timedOut = true
	}
	if eng != nil {
		l.rep = eng.Registry().Report(false)
	}
	return l, nil
}

// runSequential is lane (a): the lock-step engine, driven by Run.
func (c Case) runSequential(oracles []Oracle) (*lane, []string, error) {
	return c.runSequentialEngine("sequential", c.Engine, oracles)
}

// runSequentialEngine is lane (a) parameterized by the lock-step engine
// backend. CheckSync runs it twice — once per backend — so the SoA
// columnar core and the object core are differentially compared on
// every case, oracles and metrics included.
func (c Case) runSequentialEngine(name, engine string, oracles []Oracle) (*lane, []string, error) {
	procs, adv, inputs, err := c.build()
	if err != nil {
		return nil, nil, err
	}
	log := &eventLog{}
	checkers := newCheckers(oracles)
	eng := metrics.NewEngine(metrics.New(1))
	cfg := c.config(checkedObserver(log, checkers), eng)
	cfg.Engine = engine
	exec, err := sim.NewExecution(cfg, procs, inputs, c.Seed)
	if err != nil {
		return nil, nil, err
	}
	res, err := exec.Run(adv)
	if res == nil && errors.Is(err, sim.ErrMaxRounds) {
		res = exec.Result()
		res.Partial = true
	}
	l, err := finishLane(name, log, res, err, eng)
	if err != nil {
		return nil, nil, err
	}
	return l, finishCheckers(c, l.name, oracles, checkers, l.res, l.rep), nil
}

// runNetsim is lane (b): the goroutine-per-process live runner on a
// zero-chaos substrate, which must be byte-identical to lane (a).
func (c Case) runNetsim(oracles []Oracle) (*lane, []string, error) {
	procs, adv, inputs, err := c.build()
	if err != nil {
		return nil, nil, err
	}
	log := &eventLog{}
	checkers := newCheckers(oracles)
	eng := metrics.NewEngine(metrics.New(1))
	cfg := c.config(checkedObserver(log, checkers), eng)
	cfg.Engine = "" // the live runner has no columnar backend
	res, err := netsim.RunChaos(cfg, procs, inputs, adv, c.Seed, netsim.Options{FaultBudget: c.FaultBudget})
	l, err := finishLane("netsim", log, res, err, eng)
	if err != nil {
		return nil, nil, err
	}
	return l, finishCheckers(c, l.name, oracles, checkers, l.res, l.rep), nil
}

// runReset is lane (d1): run once to dirty every internal buffer, then
// Reset the same Execution and run the case again — Reset reuse must be
// indistinguishable from a fresh NewExecution.
func (c Case) runReset(oracles []Oracle) (*lane, []string, error) {
	procs, adv, inputs, err := c.build()
	if err != nil {
		return nil, nil, err
	}
	exec, err := sim.NewExecution(c.config(nil, nil), procs, inputs, c.Seed)
	if err != nil {
		return nil, nil, err
	}
	if _, err := exec.Run(adv); err != nil && !errors.Is(err, sim.ErrMaxRounds) {
		return nil, nil, fmt.Errorf("conformance: reset lane warmup: %w", err)
	}

	procs2, adv2, _, err := c.build()
	if err != nil {
		return nil, nil, err
	}
	log := &eventLog{}
	checkers := newCheckers(oracles)
	eng := metrics.NewEngine(metrics.New(1))
	if err := exec.Reset(c.config(checkedObserver(log, checkers), eng), procs2, inputs, c.Seed); err != nil {
		return nil, nil, err
	}
	res, err := exec.Run(adv2)
	if res == nil && errors.Is(err, sim.ErrMaxRounds) {
		res = exec.Result()
		res.Partial = true
	}
	l, err := finishLane("reset", log, res, err, eng)
	if err != nil {
		return nil, nil, err
	}
	return l, finishCheckers(c, l.name, oracles, checkers, l.res, l.rep), nil
}

// driveTo advances exec round by round until round snap (or
// termination) with Execution.StepRound, the step Run itself takes, so
// the driven prefix fires the same events and applies every part of the
// adversary's plan exactly as the sequential lane does.
func driveTo(exec *sim.Execution, adv sim.Adversary, snap, maxRounds int) error {
	for exec.Round() < snap && !exec.Done() {
		if exec.Round() >= maxRounds {
			return nil // the continuation will report the timeout
		}
		if _, err := exec.StepRound(adv); err != nil {
			return err
		}
	}
	return nil
}

// runForks is lane (d2): drive a fresh base execution to the snapshot
// round, fork it twice — Execution.Clone and a SnapshotArena shell that
// has already been through one snapshot/release cycle — and run base and
// both forks to completion. All three must continue identically (and
// identically to the sequential lane): the fork lanes are what catch
// shallow-copy state sharing between an execution, its adversary, and
// their clones. Forks carry no oracles or metrics; the event logs are
// the comparison.
func (c Case) runForks(snap int) (base, cloneFork, arenaFork *lane, err error) {
	procs, adv, inputs, err := c.build()
	if err != nil {
		return nil, nil, nil, err
	}
	maxRounds := c.MaxRounds
	if maxRounds == 0 {
		maxRounds = sim.DefaultMaxRounds(c.N)
	}
	baseLog := &eventLog{}
	exec, err := sim.NewExecution(c.config(baseLog, nil), procs, inputs, c.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := driveTo(exec, adv, snap, maxRounds); err != nil {
		return nil, nil, nil, err
	}

	// Fork state is captured BEFORE the base continues: logs, adversary
	// clones, and the two execution snapshots.
	cloneLog := baseLog.Clone()
	arenaLog := baseLog.Clone()
	cloneAdv := adv.Clone()
	arenaAdv := adv.Clone()
	clone := exec.Clone()
	clone.SetObserver(cloneLog)

	var arena sim.SnapshotArena
	if !exec.Done() {
		// Dirty the arena shell: one full snapshot/run/release cycle, so
		// the fork below exercises CloneInto reuse of a used shell.
		warm := arena.Snapshot(exec)
		warm.Run(adv.Clone())
		arena.Release(warm)
	}
	fork := arena.Snapshot(exec)
	fork.SetObserver(arenaLog)

	runRest := func(name string, e *sim.Execution, a sim.Adversary, log *eventLog) (*lane, error) {
		res, err := e.Run(a)
		if res == nil && errors.Is(err, sim.ErrMaxRounds) {
			res = e.Result()
			res.Partial = true
		}
		return finishLane(name, log, res, err, nil)
	}
	if base, err = runRest("fork-base", exec, adv, baseLog); err != nil {
		return nil, nil, nil, err
	}
	if cloneFork, err = runRest("clone-fork", clone, cloneAdv, cloneLog); err != nil {
		return nil, nil, nil, err
	}
	if arenaFork, err = runRest("arena-fork", fork, arenaAdv, arenaLog); err != nil {
		return nil, nil, nil, err
	}
	return base, cloneFork, arenaFork, nil
}

// compareLanes diffs two lanes field by field, event logs first (the
// most localizable divergence), then the Result, then metrics.
func compareLanes(c Case, a, b *lane) []Divergence {
	var out []Divergence
	div := func(field, av, bv string, idx int) {
		out = append(out, Divergence{
			Case: c, LaneA: a.name, LaneB: b.name,
			Field: field, A: av, B: bv, EventIndex: idx,
		})
	}
	if idx, av, bv := diffEvents(a.log, b.log); idx >= 0 {
		div("event", av, bv, idx)
	}
	if a.timedOut != b.timedOut {
		div("timeout", fmt.Sprint(a.timedOut), fmt.Sprint(b.timedOut), -1)
	}
	if a.res != nil && b.res != nil {
		compareResults(c, a, b, &out)
	}
	if a.rep != nil && b.rep != nil {
		if d := a.rep.Diff(b.rep); d != "" {
			div("metrics", d, "(see left)", -1)
		}
	}
	return out
}

// compareResults diffs every Result field the engines promise to agree
// on.
func compareResults(c Case, a, b *lane, out *[]Divergence) {
	ra, rb := a.res, b.res
	div := func(field string, av, bv interface{}) {
		*out = append(*out, Divergence{
			Case: c, LaneA: a.name, LaneB: b.name,
			Field: "Result." + field, A: fmt.Sprint(av), B: fmt.Sprint(bv), EventIndex: -1,
		})
	}
	if ra.DecideRounds != rb.DecideRounds {
		div("DecideRounds", ra.DecideRounds, rb.DecideRounds)
	}
	if ra.HaltRounds != rb.HaltRounds {
		div("HaltRounds", ra.HaltRounds, rb.HaltRounds)
	}
	if ra.Crashes != rb.Crashes {
		div("Crashes", ra.Crashes, rb.Crashes)
	}
	if ra.Messages != rb.Messages {
		div("Messages", ra.Messages, rb.Messages)
	}
	if ra.Survivors != rb.Survivors {
		div("Survivors", ra.Survivors, rb.Survivors)
	}
	if ra.Agreement != rb.Agreement {
		div("Agreement", ra.Agreement, rb.Agreement)
	}
	if ra.Validity != rb.Validity {
		div("Validity", ra.Validity, rb.Validity)
	}
	if fmt.Sprint(ra.Decisions) != fmt.Sprint(rb.Decisions) {
		div("Decisions", ra.Decisions, rb.Decisions)
	}
	if fmt.Sprint(ra.Decided) != fmt.Sprint(rb.Decided) {
		div("Decided", ra.Decided, rb.Decided)
	}
	if fmt.Sprint(ra.Inputs) != fmt.Sprint(rb.Inputs) {
		div("Inputs", ra.Inputs, rb.Inputs)
	}
	if ra.Faults != rb.Faults {
		div("Faults", ra.Faults, rb.Faults)
	}
}

// CheckSync runs one case through every synchronous lane and returns the
// divergences and oracle violations. A non-nil error means the harness
// itself failed (bad case, engine error other than a timeout), not that
// the engines disagree.
func CheckSync(c Case, oracles []Oracle) ([]Divergence, []string, error) {
	if oracles == nil {
		oracles = DefaultOracles()
	}
	c.normalize()

	seq, violations, err := c.runSequential(oracles)
	if err != nil {
		return nil, nil, err
	}
	var divs []Divergence

	// Lane (e): the same lock-step case on the other engine core. With
	// the default object engine this is the SoA differential lane; a case
	// pinned to Engine=soa is checked against the object core instead.
	alt := sim.EngineSoA
	if c.Engine == sim.EngineSoA {
		alt = sim.EngineObject
	}
	altLane, v, err := c.runSequentialEngine("sequential-"+alt, alt, oracles)
	if err != nil {
		return nil, nil, err
	}
	violations = append(violations, v...)
	divs = append(divs, compareLanes(c, seq, altLane)...)

	if !c.SkipNetsim {
		live, v, err := c.runNetsim(oracles)
		if err != nil {
			return nil, nil, err
		}
		violations = append(violations, v...)
		divs = append(divs, compareLanes(c, seq, live)...)
	}

	reset, v, err := c.runReset(oracles)
	if err != nil {
		return nil, nil, err
	}
	violations = append(violations, v...)
	divs = append(divs, compareLanes(c, seq, reset)...)

	snap := c.SnapRound
	if snap <= 0 {
		snap = seq.res.HaltRounds / 2
		if snap < 1 {
			snap = 1
		}
	}
	base, cloneFork, arenaFork, err := c.runForks(snap)
	if err != nil {
		return nil, nil, err
	}
	divs = append(divs, compareLanes(c, seq, base)...)
	divs = append(divs, compareLanes(c, seq, cloneFork)...)
	divs = append(divs, compareLanes(c, seq, arenaFork)...)

	return divs, violations, nil
}

// SweepConfig parameterizes a conformance sweep.
type SweepConfig struct {
	// Quick reduces the grid to one system size and two workloads.
	Quick bool
	// Seed offsets every case's seed; case i runs at Seed+i.
	Seed uint64
	// Seeds is the number of seeds per grid point (0 = 1).
	Seeds int
	// Workers bounds the case worker pool (0 = all cores).
	Workers int
	// Engine pins every case's lock-step backend ("" = object); the
	// cross-engine differential lane still runs either way.
	Engine string
	// MaxRounds overrides each case's engine safety valve (0 = default).
	MaxRounds int
	// Oracles overrides the oracle set (nil = DefaultOracles).
	Oracles []Oracle
	// Metrics, when non-nil, counts cases through the trials harness.
	Metrics *metrics.Engine
	// Durable configures checkpointing, retry, and hedging for the case
	// batches (trials.DurableWorker); the sync grid, async grid, and
	// corpus journal under distinct scopes. The zero value changes
	// nothing.
	Durable trials.Durability
}

// Summary aggregates a sweep.
type Summary struct {
	SyncCases   int
	AsyncCases  int
	Divergences []Divergence
	Violations  []string
}

// Ok reports whether the sweep found nothing.
func (s *Summary) Ok() bool {
	return len(s.Divergences) == 0 && len(s.Violations) == 0
}

// Cases enumerates the sweep's synchronous grid: every protocol ×
// adversary × workload × size combination the engines all support, plus
// (full mode) a reduced look-ahead adversary case on the lock-step
// lanes only.
func Cases(cfg SweepConfig) []Case {
	protocols := []string{
		synran.ProtocolSynRan, synran.ProtocolBenOr, synran.ProtocolFloodSet,
		synran.ProtocolEarlyStop, synran.ProtocolPhaseKing,
	}
	adversaries := []string{
		synran.AdversaryNone, synran.AdversaryRandom,
		synran.AdversarySplitVote, synran.AdversaryWaves,
	}
	workloads := []string{"zeros", "half"}
	sizes := []int{5}
	if !cfg.Quick {
		workloads = append(workloads, "ones", "random")
		sizes = append(sizes, 9)
	}
	seeds := cfg.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	var out []Case
	add := func(c Case) {
		for s := 0; s < seeds; s++ {
			cs := c
			cs.Seed = cfg.Seed + uint64(len(out))
			cs.Engine = cfg.Engine
			cs.MaxRounds = cfg.MaxRounds
			cs.normalize()
			out = append(out, cs)
		}
	}
	for _, n := range sizes {
		for _, proto := range protocols {
			t := (n - 1) / 2
			if proto == synran.ProtocolPhaseKing {
				t = (n - 1) / 4 // phase king needs n > 4t
			}
			for _, adv := range adversaries {
				for _, wl := range workloads {
					add(Case{Protocol: proto, Adversary: adv, Workload: wl, N: n, T: t})
				}
			}
		}
	}
	// The omission and late families run as targeted cases rather than a
	// full product: each pairs the adversary with the protocol built for
	// it plus the paper's protocol, on both engine cores and the netsim
	// lane (omission demotions and stale-view planning are exactly the
	// machinery the fork/reset lanes can get wrong).
	for _, tc := range []Case{
		{Protocol: synran.ProtocolOmitFlood, Adversary: synran.AdversaryOmissionSplit, Workload: "half", N: 9, T: 3, FaultBudget: 3},
		{Protocol: synran.ProtocolOmitFlood, Adversary: synran.AdversaryOmissionRandom, Workload: "half", N: 9, T: 3, FaultBudget: 3},
		{Protocol: synran.ProtocolSynRan, Adversary: synran.AdversaryOmissionSplit, Workload: "half", N: 9, T: 3, FaultBudget: 3},
		{Protocol: synran.ProtocolSynRan, Adversary: synran.AdversaryLateSplit, Workload: "half", N: 9, T: 4},
		{Protocol: synran.ProtocolLateBeacon, Adversary: synran.AdversaryLateSplit, Workload: "half", N: 10, T: 3},
		{Protocol: synran.ProtocolLateBeacon, Adversary: synran.AdversaryNone, Workload: "half", N: 10, T: 3},
	} {
		add(tc)
	}
	if !cfg.Quick {
		add(Case{Protocol: synran.ProtocolOmitFlood, Adversary: synran.AdversaryOmissionSplit, Workload: "random", N: 9, T: 3, FaultBudget: 2})
		add(Case{Protocol: synran.ProtocolSynRan, Adversary: synran.AdversaryOmissionRandom, Workload: "random", N: 9, T: 3, FaultBudget: 3})
		add(Case{Protocol: synran.ProtocolSynRan, Adversary: synran.AdversaryLateRandom, Workload: "random", N: 9, T: 4})
		// The look-ahead adversary exercises the clone/arena machinery
		// hardest (its Plan snapshots the live execution every round).
		add(Case{
			Protocol: synran.ProtocolSynRan, Adversary: synran.AdversaryLowerBound,
			Workload: "half", N: 5, T: 2,
		})
	}
	return out
}

// caseOutcome is one case's findings, aggregated in index order so the
// summary is identical at every worker count. Fields are exported
// because outcomes cross the checkpoint journal as JSON when
// SweepConfig.Durable is on.
type caseOutcome struct {
	Divs       []Divergence
	Violations []string
}

// sweepFingerprint identifies a sweep batch for the checkpoint journal:
// resuming under any changed knob (or grid size) is refused rather than
// silently mixing cases.
func sweepFingerprint(kind string, cfg SweepConfig, cases int) string {
	return fmt.Sprintf("conformance=%s,quick=%v,seed=%d,seeds=%d,engine=%q,maxrounds=%d,cases=%d",
		kind, cfg.Quick, cfg.Seed, cfg.Seeds, cfg.Engine, cfg.MaxRounds, cases)
}

// Sweep runs the full grid (sync differential lanes plus async replay
// cases) and aggregates the findings. The error reports harness
// failures only; engine disagreements are data, in Summary.
func Sweep(cfg SweepConfig) (*Summary, error) {
	oracles := cfg.Oracles
	if oracles == nil {
		oracles = DefaultOracles()
	}
	cases := Cases(cfg)
	outs, _, err := trials.DurableWorker(cfg.Durable, "conf-sync", sweepFingerprint("sync", cfg, len(cases)),
		cfg.Workers, len(cases), cfg.Metrics,
		func(worker, i int) (caseOutcome, error) {
			divs, violations, err := CheckSync(cases[i], oracles)
			if err != nil {
				return caseOutcome{}, fmt.Errorf("case %s: %w", cases[i].Name(), err)
			}
			return caseOutcome{Divs: divs, Violations: violations}, nil
		})
	if err != nil {
		return nil, err
	}
	sum := &Summary{SyncCases: len(cases)}
	for _, o := range outs {
		sum.Divergences = append(sum.Divergences, o.Divs...)
		sum.Violations = append(sum.Violations, o.Violations...)
	}

	asyncCases := AsyncCases(cfg)
	aouts, _, err := trials.DurableWorker(cfg.Durable, "conf-async", sweepFingerprint("async", cfg, len(asyncCases)),
		cfg.Workers, len(asyncCases), cfg.Metrics,
		func(worker, i int) (caseOutcome, error) {
			divs, violations, err := CheckAsync(asyncCases[i])
			if err != nil {
				return caseOutcome{}, fmt.Errorf("async case %s: %w", asyncCases[i].Name(), err)
			}
			return caseOutcome{Divs: divs, Violations: violations}, nil
		})
	if err != nil {
		return nil, err
	}
	sum.AsyncCases = len(asyncCases)
	for _, o := range aouts {
		sum.Divergences = append(sum.Divergences, o.Divs...)
		sum.Violations = append(sum.Violations, o.Violations...)
	}
	return sum, nil
}
