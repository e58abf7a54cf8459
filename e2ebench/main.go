// Command e2ebench is the repository's end-to-end benchmark. One run
// executes one workload for a fixed wall-clock budget in this process,
// checks every op's output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) by name with their units. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 64, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root:
//
//	bash e2ebench/run.sh --workload soa-scale --seed 1 --seconds 30 --trace 0
//
// The benchmark drives the layers from outside, through their public
// functions, and times those calls; it adds no tracing inside the
// program. See README.md beside this file for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// mode selects how an op is executed.
type mode int

const (
	// plain runs the op through the program's own entry point, untraced.
	plain mode = iota
	// traced runs the op through the benchmark's span-recording path.
	traced
	// metered runs the op like plain with a metrics.Engine attached.
	metered
)

func (m mode) String() string {
	return [...]string{"plain", "traced", "metered"}[m]
}

// opResult is what one op reports beyond its latency.
type opResult struct {
	procRounds int64 // Σ n·rounds (async: Σ phases reached per process)
	deliveries int64 // messages delivered
	rounds     int64 // lock-step rounds executed
	crashes    int64 // adversary crashes
	rollouts   int64 // valency rollouts run by the adversary
	terminated bool  // async: decided before the step cap
	live       bool  // jobs: the op ran on netsim
	submit     time.Duration
	result     time.Duration
	compute    time.Duration // jobs: local SimScenario time of the spec
	next       time.Duration // async: time in Scheduler.Next
	run        time.Duration // async: time in Execution.Run
	nextCalls  int64
	pendingSum int64
	planTime   time.Duration // lock-step: time in Adversary.Plan
	// probe is time the op spent in the benchmark's own probes (the
	// per-round snapshot of a traced lock-step op). It is not part of
	// the program's work, so the op's latency excludes it.
	probe time.Duration
}

// workload is one benchmark workload. Ops are numbered from 0; op i's
// inputs are a pure function of the workload seed and i.
type workload interface {
	// modes lists the modes a traced run executes every op in.
	modes() []mode
	// tailPct caps the percentile op_cpu_tail_ms reports (see tailOf).
	tailPct() float64
	// minOps is the number of ops a run completes even past its time
	// budget; the exact counts of a traced run cover the first minOps ops.
	minOps() int
	// setup prepares a fresh run: the op inputs, the program under test,
	// and a fixed warm-up op. It is timed as setup_s.
	setup(seed uint64) error
	// reference runs the benchmark's own untimed reference computations
	// and known-answer checks.
	reference() error
	// selfCheck verifies, before a traced run, that the traced path runs
	// the same program as the plain one.
	selfCheck() error
	// op runs op i in mode m.
	op(i int, m mode, tr *tracer) (opResult, error)
	// layers returns the workload's own per-layer metrics from a traced
	// run's records (traced-mode records only, ordered by op).
	layers(tr *tracer, recs []record) (map[string]float64, error)
	// close releases what setup acquired.
	close() error
}

// record is one executed op.
type record struct {
	op   int
	mode mode
	lat  time.Duration // wall time, probes excluded
	cpu  time.Duration // process CPU time, probes excluded
	res  opResult
	err  error
}

var workloads = map[string]func() workload{
	"soa-scale":         newSoAScale,
	"lowerbound-object": newLowerBoundObject,
	"async-splitter":    newAsyncSplitter,
	"synrand-jobs":      newSynrandJobs,
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

// workDir is where runs keep their files, relative to the working
// directory (the checkout root).
const workDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured wall-clock seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: want --workload {%s} --seconds > 0 --trace 0|1\n", workloadNames())
		return 2
	}
	w := mk()
	rep, err := execute(w, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, "|")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute sets the workload up, runs its reference checks, measures it,
// and prints the human-readable report. An error means the run could
// not be measured at all; failed ops are reported, not returned.
func execute(w workload, name string, seed uint64, budget time.Duration, traceRun bool, out io.Writer) (*report, error) {
	var setups, setupsWall []time.Duration
	for k := 0; k < setupRuns; k++ {
		if k > 0 {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		start, cpu0 := time.Now(), cpuNow()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpuNow()-cpu0)
		setupsWall = append(setupsWall, time.Since(start))
	}
	if err := w.reference(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var problems []string
	modes := []mode{plain}
	var tr *tracer
	if traceRun {
		if err := w.selfCheck(); err != nil {
			problems = append(problems, "self-check: "+err.Error())
		}
		modes = w.modes()
		tr = newTracer(spanLimit)
	}

	var cal *calibration
	if !traceRun {
		var err error
		if cal, err = newCalibration(); err != nil {
			return nil, err
		}
		defer cal.close()
		cal.run()
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	recs, elapsed, cpu, refs, err := measure(w, modes, budget, tr, cal)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)

	rep := &report{Metrics: map[string]metric{}}
	for _, r := range recs {
		rep.Attempted++
		if r.err != nil {
			rep.Failed++
			if len(problems) < 5 {
				problems = append(problems, fmt.Sprintf("op %d (%s): %v", r.op, r.mode, r.err))
			}
		}
	}
	if rep.Attempted == 0 {
		return nil, errors.New("no op completed")
	}
	fmt.Fprintf(out, "workload %s seed %d: %d ops attempted, %d failed, failed_ratio %.4f, %s measured\n",
		name, seed, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted), elapsed.Round(time.Millisecond))
	if traceRun {
		if err := traceMetrics(w, rep, recs, tr, &ms0, &ms1, out); err != nil {
			return nil, err
		}
		path := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := tr.writeSpans(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	} else if err := endToEnd(rep, recs, setups, setupsWall, elapsed, cpu, refs, w.tailPct(), out); err != nil {
		problems = append(problems, err.Error())
	}
	for _, p := range problems {
		fmt.Fprintf(out, "FAIL %s\n", p)
	}
	rep.Correct = len(problems) == 0 && rep.Failed == 0
	return rep, nil
}

// spanLimit bounds the spans a traced run keeps in memory; later spans
// still count in the per-name totals.
const spanLimit = 100_000

// measure runs the closed loop: one client takes the next op index and
// runs it in every mode (rotating the order by op index), until the
// budget is spent and at least minOps ops have been issued. With cal it
// runs the reference computation between ops, every calEvery of wall
// time. It returns the records in op order, the wall time from start to
// the last completion, the process CPU time over the same span less the
// reference computations', and the reference computations' CPU times.
func measure(w workload, modes []mode, budget time.Duration, tr *tracer, cal *calibration) ([]record, time.Duration, time.Duration, []time.Duration, error) {
	var (
		recs          []record
		refs          []time.Duration
		refCPU        time.Duration
		lastRef, last time.Time
		lastCPU       time.Duration
	)
	start, cpu0 := time.Now(), cpuNow()
	deadline := start.Add(budget)
	hardStop := deadline.Add(maxOvershoot)
	for i := 0; ; i++ {
		now := time.Now()
		if now.After(hardStop) {
			return nil, 0, 0, nil, fmt.Errorf("fewer than %d ops finished within %v", w.minOps(), budget+maxOvershoot)
		}
		if now.After(deadline) && i >= w.minOps() {
			break
		}
		if cal != nil && now.Sub(lastRef) >= calEvery {
			d := cal.run()
			refs = append(refs, d)
			refCPU += d
			lastRef = time.Now()
		}
		for k := range modes {
			m := modes[(i+k)%len(modes)]
			t0, c0 := time.Now(), cpuNow()
			res, err := w.op(i, m, tr)
			last, lastCPU = time.Now(), cpuNow()
			recs = append(recs, record{op: i, mode: m, lat: last.Sub(t0) - res.probe,
				cpu: lastCPU - c0 - res.probe, res: res, err: err})
		}
	}
	sort.SliceStable(recs, func(a, b int) bool {
		if recs[a].op != recs[b].op {
			return recs[a].op < recs[b].op
		}
		return recs[a].mode < recs[b].mode
	})
	return recs, last.Sub(start), lastCPU - cpu0 - refCPU, refs, nil
}

// calEvery is how often, in wall time, the loop runs the reference
// computation between ops.
const calEvery = 100 * time.Millisecond

// maxOvershoot bounds how long a run may go past its budget to finish
// its minimum op count.
const maxOvershoot = 90 * time.Second

func byMode(recs []record, m mode) []record {
	var out []record
	for _, r := range recs {
		if r.mode == m {
			out = append(out, r)
		}
	}
	return out
}

func latencies(recs []record) []time.Duration {
	ds := make([]time.Duration, len(recs))
	for i, r := range recs {
		ds[i] = r.lat
	}
	return ds
}

// endToEnd fills the end-to-end metrics of an untraced run. Every time
// it reports is process CPU time (see cpuNow) scaled to host speed: the
// run's measured time times refNominal over the median time of the
// reference computation between its ops (see calibration). The raw CPU
// and wall-clock figures are printed beside them for reading.
func endToEnd(rep *report, recs []record, setups, setupsWall []time.Duration, elapsed, cpu time.Duration, refs []time.Duration, maxPct float64, out io.Writer) error {
	ref := medianDur(refs)
	if ref <= 0 {
		return fmt.Errorf("no reference computation timed")
	}
	scale := float64(refNominal) / float64(ref)
	lat := msList(latencies(recs))
	opCPU := make([]float64, len(recs))
	var procRounds, deliveries int64
	for i, r := range recs {
		opCPU[i] = ms(r.cpu) * scale
		procRounds += r.res.procRounds
		deliveries += r.res.deliveries
	}
	tl, ok := tailOf(lat, maxPct)
	tc, _ := tailOf(opCPU, maxPct)
	cpuSec := cpu.Seconds() * scale
	put := func(name, unit string, v float64) {
		rep.Metrics[name] = metric{Value: v, Unit: unit}
		fmt.Fprintf(out, "  %-22s %16.6g %s\n", name, v, unit)
	}
	info := func(name, unit string, v float64) {
		fmt.Fprintf(out, "  %-22s %16.6g %s\n", name, v, unit)
	}
	put("setup_s", "s", medianDur(setups).Seconds()*scale)
	put("cpu_ms_per_op", "ms", cpuSec*1e3/float64(len(recs)))
	put("op_cpu_p50_ms", "ms", median(opCPU))
	put("op_cpu_tail_ms", "ms", tc.Value)
	fmt.Fprintf(out, "  %-22s p%g of %d samples, %d beyond\n", "  op_cpu_tail_ms at", tc.Pct, tc.Samples, tc.Beyond)
	put("proc_rounds_per_cpu_s", "1/s", float64(procRounds)/cpuSec)
	fmt.Fprintln(out, "  printed for reading, not in the result line:")
	info("deliveries_per_cpu_s", "1/s", float64(deliveries)/cpuSec)
	info("peak_rss_mb", "MB", peakRSSMB())
	info("failed_ratio", "ratio", float64(rep.Failed)/float64(rep.Attempted))
	info("reference_ms", "ms", ms(ref))
	fmt.Fprintf(out, "  %-22s %16d\n", "references", len(refs))
	info("host_scale", "x", scale)
	info("setup_cpu_s", "s", medianDur(setups).Seconds())
	info("setup_wall_s", "s", medianDur(setupsWall).Seconds())
	info("cpu_ms_per_op_raw", "ms", ms(cpu)/float64(len(recs)))
	info("ops_per_s", "1/s", float64(len(recs))/elapsed.Seconds())
	info("proc_rounds_per_s", "1/s", float64(procRounds)/elapsed.Seconds())
	info("deliveries_per_s", "1/s", float64(deliveries)/elapsed.Seconds())
	info("op_p50_ms", "ms", median(lat))
	info("op_tail_ms", "ms", tl.Value)
	fmt.Fprintf(out, "  %-22s p%g of %d samples, %d beyond\n", "  op_tail_ms at", tl.Pct, tl.Samples, tl.Beyond)
	if !ok {
		return fmt.Errorf("op tail: %d samples leave fewer than %d beyond the median", len(lat), minBeyond)
	}
	return nil
}

// perLayer lists every per-layer metric with its unit. A traced run
// prints all of them; a layer the workload never reaches reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.phase_a_s", "s"},
	{"sim.phase_b_s", "s"},
	{"sim.construct_s", "s"},
	{"sim.rounds", "count"},
	{"sim.snapshot_us", "us"},
	{"adversary.plan_s", "s"},
	{"adversary.crashes", "count"},
	{"valency.rollouts", "count"},
	{"valency.rollout_us", "us"},
	{"async.sched_next_s", "s"},
	{"async.engine_s", "s"},
	{"async.pending_mean", "count"},
	{"async.deliveries", "count"},
	{"async.terminated_ratio", "ratio"},
	{"server.submit_ms", "ms"},
	{"server.result_ms", "ms"},
	{"server.compute_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"trials.durable_overhead_ms", "ms"},
	{"netsim.job_ms", "ms"},
	{"server.rejections", "count"},
	{"metrics.on_off_ratio", "ratio"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cycles_per_op", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// traceMetrics fills the per-layer metrics of a traced run.
func traceMetrics(w workload, rep *report, recs []record, tr *tracer, ms0, ms1 *runtime.MemStats, out io.Writer) error {
	vals, err := w.layers(tr, byMode(recs, traced))
	if err != nil {
		return err
	}
	execs := float64(len(recs))
	vals["go.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / execs
	vals["go.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / execs
	vals["go.gc_cycles_per_op"] = float64(ms1.NumGC-ms0.NumGC) / execs
	plainP50 := median(msList(latencies(byMode(recs, plain))))
	vals["trace.overhead_ratio"] = ratio(median(msList(latencies(byMode(recs, traced)))), plainP50)
	if m := byMode(recs, metered); len(m) > 0 {
		vals["metrics.on_off_ratio"] = ratio(median(msList(latencies(m))), plainP50)
	}
	for _, pl := range perLayer {
		v := vals[pl.name]
		delete(vals, pl.name)
		rep.Metrics[pl.name] = metric{Value: v, Unit: pl.unit}
		fmt.Fprintf(out, "  %-28s %16.6g %s\n", pl.name, v, pl.unit)
	}
	for k := range vals {
		return fmt.Errorf("workload reported unknown per-layer metric %q", k)
	}
	fmt.Fprintln(out, "  span self times (kept spans):")
	tr.mu.Lock()
	lts := selfTimes(tr.spans)
	tr.mu.Unlock()
	for _, lt := range lts {
		fmt.Fprintf(out, "    %-22s %9d spans  total %12.3f ms  self %12.3f ms\n",
			lt.Name, lt.Count, ms(lt.Total), ms(lt.Self))
	}
	return nil
}

// window returns the traced records of the first n ops: exact counts
// are summed over this window so they repeat for a given seed however
// many ops the time budget admits.
func window(recs []record, n int) []record {
	var out []record
	for _, r := range recs {
		if r.op < n {
			out = append(out, r)
		}
	}
	return out
}
