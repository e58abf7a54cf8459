package main

import (
	"fmt"

	"synran"
	"synran/internal/metrics"
	"synran/internal/sim"
	"synran/internal/valency"
)

// lockStep is a workload of single SynRan executions on the lock-step
// engine: soa-scale (columnar core, huge n, SplitVote) and
// lowerbound-object (object core, small n, the valency-guided adversary).
type lockStep struct {
	n, t      int
	adversary string
	engine    string
	warmOps   int     // fixed warm-up ops per setup
	minCount  int     // minOps
	tail      float64 // tailPct
	known     answer  // pinned outcome of op 0 at workload seed 42

	seed    uint64
	inputs  []int
	meter   *metrics.Engine // attached in metered mode
	rollMet *metrics.Engine // the traced LowerBound's Est.Metrics
	arena   sim.SnapshotArena
}

// answer is a pinned execution outcome, as consensus-sim prints it.
type answer struct {
	seed                     uint64
	value, crashes           int
	decideRounds, haltRounds int
}

func newSoAScale() workload {
	return &lockStep{n: 100_000, t: 99_999, adversary: synran.AdversarySplitVote,
		engine: sim.EngineSoA, warmOps: 1, minCount: 12, tail: 75,
		known: answer{seed: 42, value: 0, decideRounds: 110, haltRounds: 110, crashes: 99_970}}
}

func newLowerBoundObject() workload {
	return &lockStep{n: 64, t: 63, adversary: synran.AdversaryLowerBound,
		engine: sim.EngineObject, warmOps: 2, minCount: 24, tail: 90,
		known: answer{seed: 42, value: 0, decideRounds: 11, haltRounds: 11, crashes: 63}}
}

func (w *lockStep) minOps() int      { return w.minCount }
func (w *lockStep) tailPct() float64 { return w.tail }
func (w *lockStep) modes() []mode    { return []mode{plain, traced, metered} }

// opSeed is op i's execution seed: the trials stride from the workload
// seed, so op 0 runs at the workload seed itself.
func opSeed(seed uint64, i int) uint64 { return seed + uint64(i)*7919 }

// spec is op i's execution: SynRan against the workload's adversary with
// t = n−1 and half/half inputs.
func (w *lockStep) spec(seed uint64, i int) synran.Spec {
	inputs := w.inputs
	if inputs == nil {
		inputs = synran.HalfHalfInputs(w.n)
	}
	return synran.Spec{N: w.n, T: w.t, Inputs: inputs, Protocol: synran.ProtocolSynRan,
		Adversary: w.adversary, Seed: opSeed(seed, i), Engine: w.engine}
}

func (w *lockStep) setup(seed uint64) error {
	w.seed = seed
	w.inputs = synran.HalfHalfInputs(w.n)
	w.meter = synran.NewMetricsEngine(1)
	w.rollMet = synran.NewMetricsEngine(0)
	w.arena = sim.SnapshotArena{}
	// Warm-up ops at a fixed seed, so set-up does the same work for
	// every workload seed.
	for i := 0; i < w.warmOps; i++ {
		if _, err := w.plainOp(w.spec(1, i)); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *lockStep) close() error { return nil }

// reference checks the pinned known answer: op 0 at workload seed 42 is
// consensus-sim's run at -seed 42.
func (w *lockStep) reference() error {
	res, err := synran.Run(w.spec(w.known.seed, 0))
	if err != nil {
		return err
	}
	got := answer{seed: w.known.seed, value: res.DecidedValue(), decideRounds: res.DecideRounds,
		haltRounds: res.HaltRounds, crashes: res.Crashes}
	if got != w.known {
		return fmt.Errorf("known answer at seed %d: got %+v, want %+v", w.known.seed, got, w.known)
	}
	return nil
}

func (w *lockStep) op(i int, m mode, tr *tracer) (opResult, error) {
	spec := w.spec(w.seed, i)
	switch m {
	case traced:
		_, or, err := w.stepLoop(spec, tr, i, nil)
		return or, err
	case metered:
		spec.Metrics = w.meter
	}
	return w.plainOp(spec)
}

// plainOp runs spec through synran.Run, the path consensus-sim takes.
func (w *lockStep) plainOp(spec synran.Spec) (opResult, error) {
	res, err := synran.Run(spec)
	if err != nil {
		return opResult{}, err
	}
	if err := checkLockStep(res, spec.N, spec.T); err != nil {
		return opResult{}, err
	}
	return w.outcome(res, int64(res.HaltRounds)), nil
}

func (w *lockStep) outcome(res *sim.Result, rounds int64) opResult {
	return opResult{procRounds: int64(w.n) * rounds, deliveries: int64(res.Messages),
		rounds: rounds, crashes: int64(res.Crashes)}
}

// build constructs spec's adversary and execution exactly as synran.Run
// does, with obs as the execution's observer.
func build(spec synran.Spec, obs sim.Observer) (sim.Adversary, *sim.Execution, error) {
	procs, err := synran.NewProtocol(spec.Protocol, spec.N, spec.T, spec.Inputs, spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	adv, err := synran.NewAdversaryBudget(spec.Adversary, spec.N, spec.T, spec.FaultBudget, spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	exec, err := sim.NewExecution(sim.Config{N: spec.N, T: spec.T, MaxRounds: spec.MaxRounds,
		Engine: spec.Engine, FaultBudget: spec.FaultBudget, Observer: obs}, procs, spec.Inputs, spec.Seed)
	return adv, exec, err
}

// stepLoop runs spec round by round from outside the engine, timing
// each layer boundary: construction, StepPhaseA, one SnapshotArena
// snapshot of the main execution, Adversary.Plan, FinishRound and
// Result. It builds the execution exactly as synran.Run does and
// mirrors Execution.Drive's loop, firing obs.OnRound where Drive fires
// the configured observer's.
func (w *lockStep) stepLoop(spec synran.Spec, tr *tracer, op int, obs sim.Observer) (*sim.Result, opResult, error) {
	root := tr.begin("op", noSpan, op)
	defer tr.end(root)
	s := tr.begin("sim.construct", root, op)
	adv, exec, err := build(spec, obs)
	tr.end(s)
	if err != nil {
		return nil, opResult{}, err
	}
	if _, ok := adv.(sim.Omitter); ok {
		return nil, opResult{}, fmt.Errorf("adversary %s omits; the benchmark loop drives crash plans only", adv.Name())
	}
	if _, ok := adv.(sim.Forger); ok {
		return nil, opResult{}, fmt.Errorf("adversary %s forges; the benchmark loop drives crash plans only", adv.Name())
	}
	var rollBase uint64
	if lb, ok := adv.(*valency.LowerBound); ok {
		lb.Est.Metrics = w.rollMet
		rollBase = w.rollMet.Rollouts.Value()
	}
	maxRounds := spec.MaxRounds
	if maxRounds == 0 {
		maxRounds = sim.DefaultMaxRounds(spec.N)
	}
	var or opResult
	for !exec.Done() {
		if exec.Round() >= maxRounds {
			return nil, opResult{}, fmt.Errorf("%w (after %d rounds)", sim.ErrMaxRounds, exec.Round())
		}
		s = tr.begin("sim.StepPhaseA", root, op)
		v, err := exec.StepPhaseA()
		tr.end(s)
		if err != nil {
			return nil, opResult{}, err
		}
		if obs != nil {
			obs.OnRound(v.Round, v)
		}
		s = tr.begin("sim.Snapshot", root, op)
		snap := w.arena.Snapshot(exec)
		or.probe += tr.end(s)
		w.arena.Release(snap)
		s = tr.begin("adversary.Plan", root, op)
		plans := adv.Plan(v)
		or.planTime += tr.end(s)
		s = tr.begin("sim.FinishRound", root, op)
		err = exec.FinishRound(plans)
		tr.end(s)
		if err != nil {
			return nil, opResult{}, err
		}
		or.rounds++
	}
	s = tr.begin("sim.Result", root, op)
	res := exec.Result()
	tr.end(s)
	if err := checkLockStep(res, spec.N, spec.T); err != nil {
		return nil, opResult{}, err
	}
	if or.rounds != int64(res.HaltRounds) {
		return nil, opResult{}, fmt.Errorf("loop ran %d rounds, result reports %d", or.rounds, res.HaltRounds)
	}
	rollouts := int64(w.rollMet.Rollouts.Value() - rollBase)
	planTime, probe := or.planTime, or.probe
	or = w.outcome(res, or.rounds)
	or.rollouts, or.planTime, or.probe = rollouts, planTime, probe
	return res, or, nil
}

// selfCheck runs op 0 through Execution.Run and through the benchmark's
// round loop, each with a sim.Digest observer, and requires equal
// digests and equal results: the traced run measures the same program.
func (w *lockStep) selfCheck() error {
	spec := w.spec(w.seed, 0)
	runDigest, loopDigest := sim.NewDigest(), sim.NewDigest()
	adv, exec, err := build(spec, runDigest)
	if err != nil {
		return err
	}
	want, err := exec.Run(adv)
	if err != nil {
		return err
	}
	got, _, err := w.stepLoop(spec, nil, 0, loopDigest)
	if err != nil {
		return err
	}
	if runDigest.Sum() != loopDigest.Sum() {
		return fmt.Errorf("digest of the benchmark loop %s != Execution.Run's %s", loopDigest, runDigest)
	}
	if got.DecideRounds != want.DecideRounds || got.HaltRounds != want.HaltRounds ||
		got.Crashes != want.Crashes || got.Messages != want.Messages || got.DecidedValue() != want.DecidedValue() {
		return fmt.Errorf("benchmark loop result %+v != Execution.Run's %+v", summary(got), summary(want))
	}
	return nil
}

func summary(r *sim.Result) answer {
	return answer{value: r.DecidedValue(), decideRounds: r.DecideRounds, haltRounds: r.HaltRounds, crashes: r.Crashes}
}

func (w *lockStep) layers(tr *tracer, recs []record) (map[string]float64, error) {
	ops := float64(len(recs))
	if ops == 0 {
		return nil, fmt.Errorf("no traced op")
	}
	perOp := func(name string) float64 { return tr.total(name).Total.Seconds() / ops }
	vals := map[string]float64{
		"sim.phase_a_s":    perOp("sim.StepPhaseA"),
		"sim.phase_b_s":    perOp("sim.FinishRound"),
		"sim.construct_s":  perOp("sim.construct"),
		"adversary.plan_s": perOp("adversary.Plan"),
	}
	if snap := tr.total("sim.Snapshot"); snap.Count > 0 {
		vals["sim.snapshot_us"] = snap.Total.Seconds() * 1e6 / float64(snap.Count)
	}
	var rounds, crashes, rollouts int64
	for _, r := range window(recs, w.minCount) {
		rounds += r.res.rounds
		crashes += r.res.crashes
		rollouts += r.res.rollouts
	}
	vals["sim.rounds"] = float64(rounds)
	vals["adversary.crashes"] = float64(crashes)
	vals["valency.rollouts"] = float64(rollouts)
	var plan float64
	var allRollouts int64
	for _, r := range recs {
		plan += r.res.planTime.Seconds()
		allRollouts += r.res.rollouts
	}
	vals["valency.rollout_us"] = ratio(plan*1e6, float64(allRollouts))
	return vals, nil
}
