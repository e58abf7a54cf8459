package async

import (
	"errors"
	"testing"
	"testing/quick"
)

func mkBenOr(t *testing.T, n, tt int, inputs []int, mode CoinMode, seed uint64) []Process {
	t.Helper()
	procs, err := NewBenOrProcs(n, tt, inputs, mode, seed)
	if err != nil {
		t.Fatal(err)
	}
	return procs
}

func runAsync(t *testing.T, n, tt int, inputs []int, mode CoinMode, sched Scheduler, seed uint64, maxSteps int) (*Result, error) {
	t.Helper()
	procs := mkBenOr(t, n, tt, inputs, mode, seed)
	exec, err := NewExecution(Config{N: n, T: tt, MaxSteps: maxSteps}, procs, inputs, seed)
	if err != nil {
		t.Fatal(err)
	}
	return exec.Run(sched)
}

func half(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i % 2
	}
	return in
}

func uniform(n, v int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = v
	}
	return in
}

func TestPackUnpack(t *testing.T) {
	for _, typ := range []int{typeReport, typePropose, typeDecide} {
		for _, phase := range []int{1, 7, 1000} {
			for _, val := range []int{0, 1, valBottom} {
				ty, p, v := Unpack(Pack(typ, phase, val))
				if ty != typ || p != phase || v != val {
					t.Fatalf("roundtrip (%d,%d,%d) -> (%d,%d,%d)", typ, phase, val, ty, p, v)
				}
			}
		}
	}
}

func TestBenOrValidation(t *testing.T) {
	if _, err := NewBenOr(0, 4, 2, 0, CoinRandom, nil); err == nil {
		t.Fatal("t >= n/2 must be rejected")
	}
	if _, err := NewBenOrProcs(4, 1, []int{2, 0, 0, 0}, CoinRandom, 1); err == nil {
		t.Fatal("bad input must be rejected")
	}
}

func TestExecutionValidation(t *testing.T) {
	procs := mkBenOr(t, 4, 1, uniform(4, 0), CoinRandom, 1)
	if _, err := NewExecution(Config{N: 5, T: 1}, procs, uniform(4, 0), 1); err == nil {
		t.Fatal("size mismatch must be rejected")
	}
	if _, err := NewExecution(Config{N: 4, T: 4}, procs, uniform(4, 0), 1); err == nil {
		t.Fatal("T >= N must be rejected")
	}
}

func TestUnanimousFIFO(t *testing.T) {
	for _, v := range []int{0, 1} {
		res, err := runAsync(t, 5, 2, uniform(5, v), CoinRandom, FIFO{}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreement || !res.Validity || res.DecidedValue() != v {
			t.Fatalf("all-%d: agreement=%v validity=%v decided=%d",
				v, res.Agreement, res.Validity, res.DecidedValue())
		}
	}
}

func TestSplitInputsTerminateUnderFIFO(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		res, err := runAsync(t, 5, 2, half(5), CoinRandom, FIFO{}, seed, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Agreement {
			t.Fatalf("seed %d: disagreement %v", seed, res.Decisions)
		}
	}
}

func TestAgreementUnderRandomSchedulerWithCrashes(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		res, err := runAsync(t, 7, 3, half(7), CoinRandom,
			&RandomSched{CrashProb: 0.02}, seed, 0)
		if err != nil {
			// A heavily crashed run can starve; safety is the claim.
			if errors.Is(err, ErrMaxSteps) {
				continue
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Agreement || !res.Validity {
			t.Fatalf("seed %d: agreement=%v validity=%v", seed, res.Agreement, res.Validity)
		}
	}
}

func TestFLPDeterministicLoopsForever(t *testing.T) {
	// The FLP demonstration: Ben-Or derandomized with the parity coin,
	// balanced inputs, and the splitter scheduler never decides — the
	// run hits the step cap with every process still alive and undecided.
	_, err := runAsync(t, 4, 1, half(4), CoinParity, NewSplitter(), 1, 4000)
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("deterministic variant terminated under the splitter (err=%v); "+
			"FLP says a non-terminating schedule exists", err)
	}
}

func TestRandomizedEscapesTheSplitter(t *testing.T) {
	// The same scheduler cannot loop the RANDOMIZED protocol forever:
	// with private fair coins, each phase has a positive probability of
	// alignment. (This is exactly the randomization-beats-FLP point.)
	done := 0
	for seed := uint64(0); seed < 5; seed++ {
		res, err := runAsync(t, 4, 1, half(4), CoinRandom, NewSplitter(), seed, 200000)
		if err != nil {
			continue
		}
		done++
		if !res.Agreement {
			t.Fatalf("seed %d: disagreement", seed)
		}
	}
	if done == 0 {
		t.Fatal("randomized Ben-Or never terminated under the splitter in 5 runs")
	}
}

func TestDecideGossipPropagates(t *testing.T) {
	// Crash-reliable flooding: once anyone decides, everyone correct
	// decides the same value even if the original decider halts at once.
	res, err := runAsync(t, 5, 2, uniform(5, 1), CoinRandom, FIFO{}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range res.Decided {
		if !ok {
			t.Fatalf("process %d never decided", i)
		}
		if res.Decisions[i] != 1 {
			t.Fatalf("process %d decided %d", i, res.Decisions[i])
		}
	}
}

func TestFlipsCountedOnlyWhenCoinUsed(t *testing.T) {
	procs := mkBenOr(t, 5, 2, uniform(5, 1), CoinRandom, 1)
	exec, err := NewExecution(Config{N: 5, T: 2}, procs, uniform(5, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(FIFO{}); err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if f := p.(*BenOr).Flips(); f != 0 {
			t.Fatalf("process %d flipped %d coins on unanimous inputs", i, f)
		}
	}
}

func TestSafetyQuickAsync(t *testing.T) {
	f := func(tRaw uint8, bits uint32, seed uint64) bool {
		tt := int(tRaw%3) + 1
		n := 2*tt + 1 + int(bits%3)
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = int(bits>>uint(i%32)) & 1
		}
		procs, err := NewBenOrProcs(n, tt, inputs, CoinRandom, seed)
		if err != nil {
			return false
		}
		exec, err := NewExecution(Config{N: n, T: tt}, procs, inputs, seed)
		if err != nil {
			return false
		}
		res, err := exec.Run(&RandomSched{CrashProb: 0.01})
		if err != nil {
			return errors.Is(err, ErrMaxSteps) // starvation is allowed; unsafety is not
		}
		return res.Agreement && res.Validity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// crashingSplitter wraps a Splitter and, once, turns its pick into a
// crash+deliver step whose chosen message dies with the crash: it names
// a pending report message and crashes that message's sender in the same
// Action. The engine must then deliver a DIFFERENT message — the
// scenario where the pre-fix Splitter (recording its choice in Next)
// silently drifted from true deliveries.
type crashingSplitter struct {
	inner   *Splitter
	crashed bool
	reports int // actual report deliveries, counted independently
}

func (c *crashingSplitter) Name() string { return "crashing-splitter" }

func (c *crashingSplitter) Next(v *View) Action {
	act := c.inner.Next(v)
	if !c.crashed && v.Budget > 0 {
		for idx, m := range v.Pending {
			typ, _, val := Unpack(m.Payload)
			if typ == typeReport && (val == 0 || val == 1) && v.Alive[m.From] {
				c.crashed = true
				return Action{Victim: m.From, Deliver: idx}
			}
		}
	}
	return act
}

func (c *crashingSplitter) Delivered(m Message) {
	typ, _, val := Unpack(m.Payload)
	if typ == typeReport && (val == 0 || val == 1) {
		c.reports++
	}
	c.inner.Delivered(m)
}

func TestSplitterTallyMatchesDeliveries(t *testing.T) {
	// Regression for the Splitter drift bug: force a step that both
	// crashes a victim and had chosen one of the victim's messages, then
	// assert the seen tally equals the report deliveries that actually
	// happened. Before the record-on-delivery fix, the tally counted the
	// chosen (never delivered) message and drifted.
	triggered := false
	for seed := uint64(0); seed < 8; seed++ {
		sched := &crashingSplitter{inner: NewSplitter()}
		_, err := runAsync(t, 5, 2, half(5), CoinRandom, sched, seed, 0)
		if err != nil && !errors.Is(err, ErrMaxSteps) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := sched.inner.RecordedReports(), sched.reports; got != want {
			t.Fatalf("seed %d: splitter tally %d != actual report deliveries %d", seed, got, want)
		}
		triggered = triggered || sched.crashed
	}
	if !triggered {
		t.Fatal("no run ever produced the crash+deliver step; the regression scenario never ran")
	}
}

// vandalSched mutates every view slice it is handed after making its
// pick — a worst-case buggy scheduler. With defensive copies the
// vandalism must not leak into engine state.
type vandalSched struct{ inner Scheduler }

func (s vandalSched) Name() string { return "vandal" }

func (s vandalSched) Next(v *View) Action {
	act := s.inner.Next(v)
	for i := range v.Alive {
		v.Alive[i] = false
	}
	for i := range v.Pending {
		v.Pending[i] = Message{Seq: -1, From: -1, To: -1, Payload: -1}
	}
	return act
}

// deliveryLog records the engine's true delivery sequence (the async
// run digest) while forwarding the callback to the wrapped scheduler.
type deliveryLog struct {
	Scheduler
	log []Message
}

func (d *deliveryLog) Delivered(m Message) {
	if obs, ok := d.Scheduler.(DeliveryObserver); ok {
		obs.Delivered(m)
	}
	d.log = append(d.log, m)
}

func TestMutatingSchedulerDoesNotAffectDigest(t *testing.T) {
	run := func(sched Scheduler) (*deliveryLog, *Result) {
		rec := &deliveryLog{Scheduler: sched}
		procs := mkBenOr(t, 5, 2, half(5), CoinRandom, 7)
		exec, err := NewExecution(Config{N: 5, T: 2}, procs, half(5), 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.Run(rec)
		if err != nil {
			t.Fatal(err)
		}
		return rec, res
	}
	clean, cleanRes := run(FIFO{})
	vandal, vandalRes := run(vandalSched{inner: FIFO{}})
	if len(clean.log) != len(vandal.log) {
		t.Fatalf("delivery counts diverged: %d vs %d", len(clean.log), len(vandal.log))
	}
	for i := range clean.log {
		if clean.log[i] != vandal.log[i] {
			t.Fatalf("delivery %d diverged: %+v vs %+v", i, clean.log[i], vandal.log[i])
		}
	}
	if cleanRes.Steps != vandalRes.Steps || cleanRes.DecidedValue() != vandalRes.DecidedValue() ||
		cleanRes.Crashes != vandalRes.Crashes {
		t.Fatalf("results diverged: %+v vs %+v", cleanRes, vandalRes)
	}
}

func TestSyncRoundSchedulerTerminates(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		res, err := runAsync(t, 5, 2, half(5), CoinRandom, NewSyncRound(), seed, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Agreement || !res.Validity {
			t.Fatalf("seed %d: agreement=%v validity=%v", seed, res.Agreement, res.Validity)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (*Result, error) {
		return runAsync(t, 5, 2, half(5), CoinRandom, &RandomSched{CrashProb: 0.01}, 42, 0)
	}
	a, errA := run()
	b, errB := run()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("replay diverged: %v vs %v", errA, errB)
	}
	if errA == nil && (a.Steps != b.Steps || a.DecidedValue() != b.DecidedValue()) {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

// refSplitter is the Splitter as it was before its tally became dense:
// nested maps keyed by receiver and phase, whose counts inserts an
// entry on every read. TestSplitterSchedule runs it beside the
// production Splitter to pin that the dense tally picks the same
// schedule.
type refSplitter struct {
	seen map[int]map[int]*[2]int
}

func newRefSplitter() *refSplitter {
	return &refSplitter{seen: make(map[int]map[int]*[2]int)}
}

func (s *refSplitter) Name() string { return "ref-splitter" }

func (s *refSplitter) Next(v *View) Action {
	bestIdx, bestScore := 0, 1<<30
	for idx, m := range v.Pending {
		score := s.score(m)
		if score < bestScore {
			bestScore, bestIdx = score, idx
			if score == 0 {
				break
			}
		}
	}
	return Action{Victim: -1, Deliver: bestIdx}
}

func (s *refSplitter) Delivered(m Message) {
	typ, phase, val := Unpack(m.Payload)
	if typ == typeReport && (val == 0 || val == 1) {
		s.counts(m.To, phase)[val]++
	}
}

func (s *refSplitter) score(m Message) int {
	typ, phase, val := Unpack(m.Payload)
	switch typ {
	case typeDecide:
		return 1 << 20
	case typePropose:
		if val == valBottom {
			return 0
		}
		return 1000
	case typeReport:
		if val != 0 && val != 1 {
			return 500
		}
		c := s.counts(m.To, phase)
		after := [2]int{c[0], c[1]}
		after[val]++
		imb := after[0] - after[1]
		if imb < 0 {
			imb = -imb
		}
		return 10 + imb
	default:
		return 100
	}
}

func (s *refSplitter) counts(receiver, phase int) *[2]int {
	byPhase, ok := s.seen[receiver]
	if !ok {
		byPhase = make(map[int]*[2]int)
		s.seen[receiver] = byPhase
	}
	c, ok := byPhase[phase]
	if !ok {
		c = &[2]int{}
		byPhase[phase] = c
	}
	return c
}

// checkedSched wraps the scheduler under test. At every Next it fails
// the test if the view breaks the engine's pending invariant (a pending
// message with a dead endpoint or a halted receiver) or, when ref is
// set, if ref picks a different Action on the same view. Deliveries go
// to both schedulers, so each keeps its own tally of the same stream.
type checkedSched struct {
	t          *testing.T
	inner, ref Scheduler
	sawCrash   bool // some view had spent crash budget
}

func (c *checkedSched) Name() string { return c.inner.Name() }

func (c *checkedSched) Next(v *View) Action {
	for _, m := range v.Pending {
		if !v.Alive[m.From] || !v.Alive[m.To] || v.Procs[m.To].Halted() {
			c.t.Fatalf("step %d: pending %+v has a dead endpoint or a halted receiver", v.Step, m)
		}
	}
	c.sawCrash = c.sawCrash || v.Budget < v.T
	act := c.inner.Next(v)
	if c.ref != nil {
		if want := c.ref.Next(v); act != want {
			c.t.Fatalf("step %d: %s picked %+v, %s picked %+v", v.Step, c.inner.Name(), act, c.ref.Name(), want)
		}
	}
	return act
}

func (c *checkedSched) Delivered(m Message) {
	for _, s := range []Scheduler{c.inner, c.ref} {
		if d, ok := s.(DeliveryObserver); ok {
			d.Delivered(m)
		}
	}
}

func TestSplitterSchedule(t *testing.T) {
	// The dense tally and the engine's compaction on crash or halt only
	// must not move a single delivery: the production Splitter and the
	// map-based reference pick the same Action at every step, and every
	// view satisfies the pending invariant. The parity runs never end; at
	// a cap of 1000·n steps every randomized run at n ≤ 6, and about half
	// at n = 8, decides and halts.
	for _, n := range []int{4, 6, 8} {
		for _, mode := range []CoinMode{CoinRandom, CoinParity} {
			for seed := uint64(0); seed < 20; seed++ {
				sched := &checkedSched{t: t, inner: NewSplitter(), ref: newRefSplitter()}
				_, err := runAsync(t, n, (n-1)/2, half(n), mode, sched, seed, 1000*n)
				if err != nil && !errors.Is(err, ErrMaxSteps) {
					t.Fatalf("n=%d mode=%d seed %d: %v", n, mode, seed, err)
				}
			}
		}
	}
}

func TestPendingInvariantUnderCrashes(t *testing.T) {
	// The invariant must also hold on the crash path (RandomSched), on
	// the crash-then-re-pick path (crashingSplitter), and under the
	// synchronous-round lane's scheduler.
	scheds := map[string]func() Scheduler{
		"random":            func() Scheduler { return &RandomSched{CrashProb: 0.02} },
		"syncround":         func() Scheduler { return NewSyncRound() },
		"crashing-splitter": func() Scheduler { return &crashingSplitter{inner: NewSplitter()} },
	}
	for name, mk := range scheds {
		crashed := false
		for seed := uint64(0); seed < 10; seed++ {
			sched := &checkedSched{t: t, inner: mk()}
			_, err := runAsync(t, 7, 3, half(7), CoinRandom, sched, seed, 0)
			if err != nil && !errors.Is(err, ErrMaxSteps) {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			crashed = crashed || sched.sawCrash
		}
		if name != "syncround" && !crashed {
			t.Fatalf("%s never crashed a process; the crash path went unchecked", name)
		}
	}
}
