package main

import (
	"errors"
	"fmt"
	"time"

	"synran"
	"synran/internal/async"
)

// asyncSplitter runs asynchronous private-coin Ben-Or under the adaptive
// Splitter scheduler at E15's step cap of 25000·n: one op is one
// execution. A run that hits the cap is a non-terminating op, the
// outcome E15 counts by omission, not a failure.
type asyncSplitter struct {
	n, t    int
	warmOps int

	seed   uint64
	inputs []int
}

func newAsyncSplitter() workload {
	return &asyncSplitter{n: 6, t: 2, warmOps: 32}
}

func (w *asyncSplitter) minOps() int      { return 64 }
func (w *asyncSplitter) tailPct() float64 { return 90 }
func (w *asyncSplitter) modes() []mode    { return []mode{plain, traced} }

func (w *asyncSplitter) setup(seed uint64) error {
	w.seed = seed
	w.inputs = synran.HalfHalfInputs(w.n)
	for i := 0; i < w.warmOps; i++ {
		if _, err := w.execute(opSeed(1, i), async.NewSplitter(), nil, i); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *asyncSplitter) close() error     { return nil }
func (w *asyncSplitter) reference() error { return nil }

func (w *asyncSplitter) op(i int, m mode, tr *tracer) (opResult, error) {
	if m == traced {
		return w.execute(opSeed(w.seed, i), newTimedScheduler(async.NewSplitter(), tr), tr, i)
	}
	return w.execute(opSeed(w.seed, i), async.NewSplitter(), nil, i)
}

// build constructs the execution at seed: private-coin Ben-Or at E15's
// step cap.
func (w *asyncSplitter) build(seed uint64) ([]async.Process, *async.Execution, error) {
	procs, err := async.NewBenOrProcs(w.n, w.t, w.inputs, async.CoinRandom, seed)
	if err != nil {
		return nil, nil, err
	}
	exec, err := async.NewExecution(async.Config{N: w.n, T: w.t, MaxSteps: 25000 * w.n}, procs, w.inputs, seed)
	return procs, exec, err
}

// execute runs one execution under sched. With a tracer it records the
// construction and Run spans, and sched (a timedScheduler) records Next.
func (w *asyncSplitter) execute(seed uint64, sched async.Scheduler, tr *tracer, op int) (opResult, error) {
	root := tr.begin("op", noSpan, op)
	defer tr.end(root)
	s := tr.begin("async.construct", root, op)
	procs, exec, err := w.build(seed)
	tr.end(s)
	if err != nil {
		return opResult{}, err
	}
	s = tr.begin("async.Run", root, op)
	if ts, ok := sched.(*timedScheduler); ok {
		ts.parent, ts.op = s, op
	}
	res, err := exec.Run(sched)
	or := opResult{run: tr.end(s), deliveries: int64(exec.Steps())}
	if ts, ok := sched.(*timedScheduler); ok {
		or.next, or.nextCalls, or.pendingSum = ts.next, ts.calls, ts.pending
	}
	for _, p := range procs {
		if b, ok := p.(*async.BenOr); ok {
			or.procRounds += int64(b.Phase())
		}
	}
	switch {
	case errors.Is(err, async.ErrMaxSteps):
		return or, nil
	case err != nil:
		return or, err
	}
	if err := checkAsync(res, w.n, w.t); err != nil {
		return or, err
	}
	or.terminated = true
	return or, nil
}

// timedScheduler wraps a scheduler to time its Next calls and observe
// the pending-set size they see. It forwards DeliveryObserver.Delivered
// to the wrapped scheduler: Splitter's tally, and so its schedule,
// depends on those callbacks, and a wrapper that dropped them would
// measure a different program.
type timedScheduler struct {
	inner   async.Scheduler
	tr      *tracer
	parent  spanRef
	op      int
	next    time.Duration
	calls   int64
	pending int64
}

var (
	_ async.Scheduler        = (*timedScheduler)(nil)
	_ async.DeliveryObserver = (*timedScheduler)(nil)
)

func newTimedScheduler(inner async.Scheduler, tr *tracer) *timedScheduler {
	return &timedScheduler{inner: inner, tr: tr, parent: noSpan}
}

// Name implements async.Scheduler.
func (s *timedScheduler) Name() string { return s.inner.Name() }

// Next implements async.Scheduler.
func (s *timedScheduler) Next(v *async.View) async.Action {
	sp := s.tr.begin("async.Next", s.parent, s.op)
	act := s.inner.Next(v)
	s.next += s.tr.end(sp)
	s.calls++
	s.pending += int64(len(v.Pending))
	return act
}

// Delivered implements async.DeliveryObserver.
func (s *timedScheduler) Delivered(m async.Message) {
	if d, ok := s.inner.(async.DeliveryObserver); ok {
		d.Delivered(m)
	}
}

// selfCheck runs op 0 under the bare Splitter and under the timing
// wrapper and requires equal delivery counts and decisions.
func (w *asyncSplitter) selfCheck() error {
	return w.sameSchedule(opSeed(w.seed, 0), newTimedScheduler(async.NewSplitter(), newTracer(0)))
}

// sameSchedule runs the execution at seed under a bare Splitter and
// under wrapped, and reports any difference in deliveries or decisions.
func (w *asyncSplitter) sameSchedule(seed uint64, wrapped async.Scheduler) error {
	run := func(sched async.Scheduler) (int, []int, error) {
		_, exec, err := w.build(seed)
		if err != nil {
			return 0, nil, err
		}
		res, err := exec.Run(sched)
		if err != nil && !errors.Is(err, async.ErrMaxSteps) {
			return 0, nil, err
		}
		var dec []int
		if res != nil {
			dec = res.Decisions
		}
		return exec.Steps(), dec, nil
	}
	bareSteps, bareDec, err := run(async.NewSplitter())
	if err != nil {
		return err
	}
	wrapSteps, wrapDec, err := run(wrapped)
	if err != nil {
		return err
	}
	if bareSteps != wrapSteps || fmt.Sprint(bareDec) != fmt.Sprint(wrapDec) {
		return fmt.Errorf("wrapped scheduler: %d deliveries, decisions %v; bare Splitter: %d, %v",
			wrapSteps, wrapDec, bareSteps, bareDec)
	}
	return nil
}

func (w *asyncSplitter) layers(tr *tracer, recs []record) (map[string]float64, error) {
	ops := float64(len(recs))
	if ops == 0 {
		return nil, fmt.Errorf("no traced op")
	}
	var next, run time.Duration
	var calls, pending, term int64
	for _, r := range recs {
		next += r.res.next
		run += r.res.run
		calls += r.res.nextCalls
		pending += r.res.pendingSum
		if r.res.terminated {
			term++
		}
	}
	var deliveries int64
	for _, r := range window(recs, w.minOps()) {
		deliveries += r.res.deliveries
	}
	return map[string]float64{
		"async.sched_next_s":     next.Seconds() / ops,
		"async.engine_s":         (run - next).Seconds() / ops,
		"async.pending_mean":     ratio(float64(pending), float64(calls)),
		"async.deliveries":       float64(deliveries),
		"async.terminated_ratio": float64(term) / ops,
	}, nil
}
