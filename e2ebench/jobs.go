package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"synran/internal/cli"
	"synran/internal/metrics"
	"synran/internal/scenario"
	"synran/internal/server"
	"synran/internal/trials"
)

// synrandJobs runs an in-process synrand server with one gate slot per
// core and one closed-loop client, which submits a job and blocks on its
// result before submitting the next: with one client in flight, the
// process's CPU time over a job is that job's. The job list cycles through
// jobCycle scenarios: multi-trial lock-step jobs (trial pool, shard
// journal, fsync seal), single-execution jobs (gate only), and one live
// job on netsim. Every result is byte-compared with a local
// cli.SimScenario run of the same scenario, as synrand loadgen does.
type synrandJobs struct {
	workers int

	cycle  []job
	refs   map[string]*refRun
	dir    string // this run's files
	setups int    // set-ups so far, naming their data directories

	shutdown  func() error
	transport *http.Transport
	client    *server.Client

	rejections      atomic.Int64
	durableOverhead time.Duration
}

// job is one entry of the job cycle.
type job struct {
	compact  string
	scenario scenario.Scenario
	priority server.Priority
	live     bool
}

// refRun is the local reference run of one job scenario.
type refRun struct {
	output     []byte
	compute    time.Duration
	procRounds int64
	deliveries int64
}

const jobCycle = 16

func newSynrandJobs() workload {
	return &synrandJobs{workers: runtime.NumCPU()}
}

func (w *synrandJobs) minOps() int      { return 32 }
func (w *synrandJobs) tailPct() float64 { return 90 }
func (w *synrandJobs) modes() []mode    { return []mode{plain, traced} }

// jobList is the job cycle for a workload seed. Positions 2, 7 and 12
// are single-execution jobs, position 15 is the live job, and the rest
// are 32-trial jobs.
func jobList(seed uint64) ([]job, error) {
	var out []job
	for p := 0; p < jobCycle; p++ {
		s := scenario.Scenario{Protocol: "synran", Adversary: "splitvote", Workload: "half",
			N: 256, T: 255, Seed: opSeed(seed, p), Trials: 32}
		prio := server.PriorityBulk
		live := false
		switch p {
		case 2, 7, 12:
			s.N, s.T, s.Trials = 512, 511, 1
			prio = server.PriorityInteractive
		case jobCycle - 1:
			s.N, s.T, s.Live, s.Trials = 64, 31, true, 1
			prio, live = server.PriorityInteractive, true
		}
		norm, err := s.Normalized()
		if err != nil {
			return nil, err
		}
		compact, err := scenario.Compact(norm)
		if err != nil {
			return nil, err
		}
		out = append(out, job{compact: compact, scenario: norm, priority: prio, live: live})
	}
	return out, nil
}

// warmJob is the fixed job each set-up runs once the server is up.
var warmJob = scenario.Scenario{Protocol: "synran", Adversary: "splitvote", Workload: "half",
	N: 256, T: 255, Seed: 1, Trials: 32}

func (w *synrandJobs) setup(seed uint64) error {
	if w.dir == "" {
		dir, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("jobs-%d", os.Getpid())))
		if err != nil {
			return err
		}
		w.dir = dir
	}
	cycle, err := jobList(seed)
	if err != nil {
		return err
	}
	w.cycle = cycle
	w.setups++
	addr, shutdown, err := cli.StartServer(cli.ServeConfig{
		Addr:    "127.0.0.1:0",
		DataDir: filepath.Join(w.dir, fmt.Sprintf("data-%d", w.setups)),
		Workers: w.workers,
	})
	if err != nil {
		return err
	}
	w.shutdown = shutdown
	w.transport = &http.Transport{MaxIdleConnsPerHost: 4}
	w.client = &server.Client{BaseURL: "http://" + addr, Name: "client-0",
		HTTPClient: &http.Client{Transport: w.transport}}
	warm, err := warmJob.Normalized()
	if err != nil {
		return err
	}
	compact, err := scenario.Compact(warm)
	if err != nil {
		return err
	}
	jv, err := w.submit(compact, server.PriorityInteractive)
	if err == nil {
		jv, err = w.client.Result(jv.ID)
	}
	if err == nil && jv.State != string(server.StateDone) {
		err = fmt.Errorf("warm-up job %s: state %s (%s)", jv.ID, jv.State, jv.Error)
	}
	return err
}

// close stops the server and removes this set-up's files.
func (w *synrandJobs) close() error {
	var err error
	if w.shutdown != nil {
		err = w.shutdown()
		w.shutdown = nil
	}
	if w.transport != nil {
		w.transport.CloseIdleConnections()
	}
	if w.dir != "" {
		if rerr := os.RemoveAll(w.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// reference runs every job scenario locally through cli.SimScenario
// with no durability, the consensus-sim path, recording its output
// bytes, its wall time, and its round and delivery counts.
func (w *synrandJobs) reference() error {
	w.refs = map[string]*refRun{}
	for _, j := range w.cycle {
		if _, ok := w.refs[j.compact]; ok {
			continue
		}
		eng := metrics.NewEngine(metrics.New(w.workers))
		var buf bytes.Buffer
		start := time.Now()
		if err := cli.SimScenario(j.scenario, cli.SimOptions{Workers: w.workers, Metrics: eng}, &buf); err != nil {
			return fmt.Errorf("reference run %s: %w", j.compact, err)
		}
		w.refs[j.compact] = &refRun{output: buf.Bytes(), compute: time.Since(start),
			procRounds: int64(eng.Rounds.Value()) * int64(j.scenario.N),
			deliveries: int64(eng.Messages.Value())}
	}
	return nil
}

// submit posts a job, retrying typed admission rejections with backoff,
// and counts the rejections absorbed.
func (w *synrandJobs) submit(compact string, p server.Priority) (server.JobView, error) {
	backoff := 2 * time.Millisecond
	for attempt := 0; attempt < 1000; attempt++ {
		jv, err := w.client.Submit(compact, p)
		if !errors.Is(err, server.ErrQueueFull) && !errors.Is(err, server.ErrClientLimit) {
			return jv, err
		}
		w.rejections.Add(1)
		time.Sleep(backoff)
		backoff = min(2*backoff, 50*time.Millisecond)
	}
	return server.JobView{}, fmt.Errorf("submission of %s still rejected after retries", compact)
}

func (w *synrandJobs) op(i int, _ mode, tr *tracer) (opResult, error) {
	j := w.cycle[i%len(w.cycle)]
	ref := w.refs[j.compact]
	root := tr.begin("op", noSpan, i)
	defer tr.end(root)
	or := opResult{procRounds: ref.procRounds, deliveries: ref.deliveries, compute: ref.compute, live: j.live}

	s := tr.begin("server.Submit", root, i)
	t0 := time.Now()
	jv, err := w.submit(j.compact, j.priority)
	or.submit = time.Since(t0)
	tr.end(s)
	if err != nil {
		return or, err
	}
	s = tr.begin("server.Result", root, i)
	t1 := time.Now()
	jv, err = w.client.Result(jv.ID)
	or.result = time.Since(t1)
	tr.end(s)
	if err != nil {
		return or, err
	}
	if jv.State != string(server.StateDone) {
		return or, fmt.Errorf("job %s (%s): state %s (%s)", jv.ID, j.compact, jv.State, jv.Error)
	}
	if jv.Output != string(ref.output) {
		return or, fmt.Errorf("job %s (%s): output differs from the local SimScenario run", jv.ID, j.compact)
	}
	return or, nil
}

// selfCheck measures the journal's cost on the first multi-trial job:
// the same scenario through cli.SimScenario with a journal Durability
// and without, alternating, and requires byte-identical output.
func (w *synrandJobs) selfCheck() error {
	j := w.cycle[0]
	var with, without []time.Duration
	for k := 0; k < 2*durablePairs; k++ {
		var d trials.Durability
		if k%2 == 1 {
			d.Dir = filepath.Join(w.dir, fmt.Sprintf("durable-%d", k))
		}
		var buf bytes.Buffer
		start := time.Now()
		err := cli.SimScenario(j.scenario, cli.SimOptions{Workers: w.workers, Durable: d}, &buf)
		took := time.Since(start)
		if err != nil {
			return fmt.Errorf("durable run %s: %w", j.compact, err)
		}
		if !bytes.Equal(buf.Bytes(), w.refs[j.compact].output) {
			return fmt.Errorf("durable run %s: output differs from the plain run", j.compact)
		}
		if d.Dir == "" {
			without = append(without, took)
		} else {
			with = append(with, took)
			if err := os.RemoveAll(d.Dir); err != nil {
				return err
			}
		}
	}
	w.durableOverhead = medianDur(with) - medianDur(without)
	return nil
}

// durablePairs is how many with/without journal runs selfCheck times.
const durablePairs = 5

func (w *synrandJobs) layers(_ *tracer, recs []record) (map[string]float64, error) {
	var submit, result, compute, overhead, live []float64
	for _, r := range recs {
		submit = append(submit, ms(r.res.submit))
		result = append(result, ms(r.res.result))
		compute = append(compute, ms(r.res.compute))
		overhead = append(overhead, ms(r.lat-r.res.compute))
		if r.res.live {
			live = append(live, ms(r.lat))
		}
	}
	return map[string]float64{
		"server.submit_ms":           median(submit),
		"server.result_ms":           median(result),
		"server.compute_ms":          median(compute),
		"server.overhead_ms":         median(overhead),
		"trials.durable_overhead_ms": ms(w.durableOverhead),
		"netsim.job_ms":              median(live),
		"server.rejections":          float64(w.rejections.Load()),
	}, nil
}
