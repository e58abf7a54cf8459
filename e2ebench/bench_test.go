package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"synran/internal/async"
	"synran/internal/sim"
)

func TestOpListDeterministic(t *testing.T) {
	soa := newSoAScale().(*lockStep)
	for i := 0; i < 4; i++ {
		if a, b := soa.spec(9, i), soa.spec(9, i); !reflect.DeepEqual(a, b) {
			t.Fatalf("soa-scale op %d differs between two derivations: %+v vs %+v", i, a, b)
		}
		if soa.spec(9, i).Seed == soa.spec(10, i).Seed {
			t.Fatalf("soa-scale op %d ignores the workload seed", i)
		}
	}
	if soa.spec(9, 1).Seed == soa.spec(9, 2).Seed {
		t.Fatal("soa-scale ops 1 and 2 share a seed")
	}
	if got := soa.spec(42, 0).Seed; got != 42 {
		t.Fatalf("op 0 at workload seed 42 runs at seed %d, want consensus-sim's 42", got)
	}

	a, err := jobList(9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := jobList(9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("synrand-jobs: the job cycle differs between two derivations")
	}
	c, err := jobList(10)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("synrand-jobs: the job cycle ignores the workload seed")
	}
	kinds := map[string]int{}
	for _, j := range a {
		switch {
		case j.live:
			kinds["live"]++
		case j.scenario.Trials == 1:
			kinds["single"]++
		default:
			kinds["multi"]++
		}
	}
	if want := map[string]int{"live": 1, "single": 3, "multi": 12}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("job mix %v, want %v", kinds, want)
	}
}

func TestTailOf(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tailOf must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		maxPct float64
		pct    float64
		ok     bool
	}{
		{10, 99.9, 0, false},
		{19, 99.9, 0, false}, // the median has 9 samples beyond it
		{20, 99.9, 50, true},
		{39, 99.9, 50, true},
		{40, 99.9, 75, true},
		{100, 99.9, 90, true},
		{199, 99.9, 90, true},
		{200, 99.9, 95, true},
		{1000, 99.9, 99, true},
		{1000, 90, 90, true},
		{5000, 75, 75, true},
	}
	for _, c := range cases {
		tl, ok := tailOf(mk(c.n), c.maxPct)
		if ok != c.ok || tl.Pct != c.pct {
			t.Errorf("n=%d cap p%g: got p%g ok=%v, want p%g ok=%v", c.n, c.maxPct, tl.Pct, ok, c.pct, c.ok)
			continue
		}
		if tl.Samples != c.n {
			t.Errorf("n=%d: reported %d samples", c.n, tl.Samples)
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range mk(c.n) {
			if x > tl.Value {
				beyond++
			}
		}
		if beyond < minBeyond || beyond != tl.Beyond {
			t.Errorf("n=%d p%g = %g: %d samples beyond, reported %d", c.n, tl.Pct, tl.Value, beyond, tl.Beyond)
		}
	}
}

// dropDelivered wraps a scheduler without forwarding Delivered.
type dropDelivered struct{ inner async.Scheduler }

func (d dropDelivered) Name() string                    { return d.inner.Name() }
func (d dropDelivered) Next(v *async.View) async.Action { return d.inner.Next(v) }

func TestTimedSchedulerForwardsDelivered(t *testing.T) {
	w := newAsyncSplitter().(*asyncSplitter)
	if err := w.setup(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tr := newTracer(1000)
		ts := newTimedScheduler(async.NewSplitter(), tr)
		if err := w.sameSchedule(opSeed(3, i), ts); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if ts.calls == 0 || tr.total("async.Next").Count != int(ts.calls) {
			t.Fatalf("op %d: %d Next calls timed, %d spans", i, ts.calls, tr.total("async.Next").Count)
		}
	}
	// The check has teeth: a wrapper that drops the callbacks changes
	// Splitter's schedule.
	caught := false
	for i := 0; i < 8 && !caught; i++ {
		caught = w.sameSchedule(opSeed(3, i), dropDelivered{async.NewSplitter()}) != nil
	}
	if !caught {
		t.Fatal("a wrapper dropping Delivered ran the same schedule on every op")
	}
}

func TestStepLoopMatchesRun(t *testing.T) {
	for _, w := range []*lockStep{
		{n: 2000, t: 1999, adversary: "splitvote", engine: sim.EngineSoA},
		{n: 300, t: 299, adversary: "splitvote", engine: sim.EngineObject},
		{n: 12, t: 11, adversary: "lowerbound", engine: sim.EngineObject},
	} {
		if err := w.setup(5); err != nil {
			t.Fatal(err)
		}
		for seed := uint64(5); seed < 8; seed++ {
			w.seed = seed
			if err := w.selfCheck(); err != nil {
				t.Fatalf("%s/%s n=%d seed %d: %v", w.adversary, w.engine, w.n, seed, err)
			}
		}
		tr := newTracer(1 << 16)
		or, err := w.op(0, traced, tr)
		if err != nil {
			t.Fatal(err)
		}
		if or.rounds == 0 || tr.total("sim.StepPhaseA").Count != int(or.rounds) ||
			tr.total("sim.Snapshot").Count != int(or.rounds) {
			t.Fatalf("%d rounds, %d StepPhaseA spans, %d snapshots", or.rounds,
				tr.total("sim.StepPhaseA").Count, tr.total("sim.Snapshot").Count)
		}
		if w.adversary == "lowerbound" && or.rollouts == 0 {
			t.Fatal("lowerbound op counted no rollouts")
		}
	}
}

func TestJobsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server and runs every job scenario")
	}
	w := newSynrandJobs().(*synrandJobs)
	w.dir = t.TempDir()
	if err := w.setup(4); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.reference(); err != nil {
		t.Fatal(err)
	}
	if err := w.selfCheck(); err != nil {
		t.Fatal(err)
	}
	// Two goroutines on the one client at once, through the shared
	// tracer, covering a multi-trial, a single-execution and the live job.
	tr := newTracer(1000)
	errs := make(chan error, 4)
	for g := 0; g < 2; g++ {
		go func(g int) {
			for _, i := range []int{g, 2 + 13*g} {
				_, err := w.op(i, traced, tr)
				errs <- err
			}
		}(g)
	}
	for k := 0; k < 4; k++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.total("server.Result").Count; got != 4 {
		t.Fatalf("%d Result spans, want 4", got)
	}
}

func TestKnownAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 10^5-process execution")
	}
	for _, mk := range []func() workload{newSoAScale, newLowerBoundObject} {
		if err := mk().reference(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,100) has children [10,30) and [20,50) (overlapping, as
	// concurrent callers' children may) and [60,70); the child [60,70)
	// has its own child [62,65).
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "a", Start: 20, End: 50, Parent: 0},
		{Name: "b", Start: 60, End: 70, Parent: 0},
		{Name: "c", Start: 62, End: 65, Parent: 3},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	want := map[string]layerTime{
		"op": {Name: "op", Count: 1, Total: 100, Self: 100 - 40 - 10},
		"a":  {Name: "a", Count: 2, Total: 50, Self: 50},
		"b":  {Name: "b", Count: 1, Total: 10, Self: 7},
		"c":  {Name: "c", Count: 1, Total: 3, Self: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %+v, want %+v", got, want)
	}
}

func TestTracerLimitKeepsTotals(t *testing.T) {
	tr := newTracer(2)
	for i := 0; i < 5; i++ {
		s := tr.begin("x", noSpan, i)
		time.Sleep(time.Microsecond)
		tr.end(s)
	}
	if len(tr.spans) != 2 || tr.dropped != 3 {
		t.Fatalf("kept %d spans, dropped %d; want 2 and 3", len(tr.spans), tr.dropped)
	}
	if tot := tr.total("x"); tot.Count != 5 || tot.Total <= 0 {
		t.Fatalf("totals %+v, want 5 spans with positive time", tot)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.begin("x", noSpan, 0)
	if d := tr.end(s); d != 0 || s.id != -1 {
		t.Fatalf("nil tracer returned span %+v, duration %v", s, d)
	}
}

func TestCPUNowCountsOnlyRunningTime(t *testing.T) {
	c0 := cpuNow()
	time.Sleep(100 * time.Millisecond)
	if d := cpuNow() - c0; d > 50*time.Millisecond {
		t.Fatalf("sleeping 100ms used %v of CPU time", d)
	}
	c0, start := cpuNow(), time.Now()
	x := uint64(1)
	for time.Since(start) < 50*time.Millisecond {
		x = xorshift(x)
	}
	if d := cpuNow() - c0; d < 10*time.Millisecond || x == 0 {
		t.Fatalf("spinning 50ms used only %v of CPU time", d)
	}
}

// TestEndToEndScaling feeds endToEnd records whose CPU times are known
// and a reference that ran at half the nominal speed: every reported
// time must be halved and every rate doubled, and the result line must
// carry exactly the end-to-end metrics BENCHMARK.json lists.
func TestEndToEndScaling(t *testing.T) {
	var recs []record
	for i := 0; i < 40; i++ {
		recs = append(recs, record{op: i, lat: 12 * time.Millisecond, cpu: time.Duration(10+i%3) * time.Millisecond,
			res: opResult{procRounds: 1000}})
	}
	refs := []time.Duration{2 * refNominal, 2 * refNominal, 2 * refNominal}
	setups := []time.Duration{300 * time.Millisecond}
	rep := &report{Attempted: len(recs), Metrics: map[string]metric{}}
	if err := endToEnd(rep, recs, setups, setups, time.Second, 440*time.Millisecond, refs, 90, io.Discard); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"setup_s":               0.15,
		"cpu_ms_per_op":         5.5,
		"op_cpu_p50_ms":         5.5,
		"op_cpu_tail_ms":        6,
		"proc_rounds_per_cpu_s": 40 * 1000 / 0.22,
	}
	for name, v := range want {
		if got := rep.Metrics[name].Value; got < v*0.999 || got > v*1.001 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}

	var printed []string
	for name, m := range rep.Metrics {
		printed = append(printed, name+" "+m.Unit)
	}
	sort.Strings(printed)
	if listed := listedMetrics(t, "end_to_end"); !reflect.DeepEqual(listed, printed) {
		t.Fatalf("result line carries %v, BENCHMARK.json lists %v", printed, listed)
	}
}

func TestPerLayerMatchesBenchmarkJSON(t *testing.T) {
	var printed []string
	for _, pl := range perLayer {
		printed = append(printed, pl.name+" "+pl.unit)
	}
	sort.Strings(printed)
	if listed := listedMetrics(t, "per_layer"); !reflect.DeepEqual(listed, printed) {
		t.Fatalf("traced runs print %v, BENCHMARK.json lists %v", printed, listed)
	}
}

// listedMetrics returns "name unit" of every metric BENCHMARK.json lists
// under key, sorted.
func listedMetrics(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench map[string]json.RawMessage
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(bench[key], &ms); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range ms {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

// TestCalibrationAllocatesNothing: a reference computation that
// allocated during a garbage collection would pay mark assists for the
// program's heap, and so measure the program instead of the host.
func TestCalibrationAllocatesNothing(t *testing.T) {
	c, err := newCalibration()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	c.run()
	if n := testing.AllocsPerRun(5, func() { c.run() }); n != 0 {
		t.Fatalf("a reference computation allocated %v times", n)
	}
}
