package main

import (
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// tailLadder lists the percentiles a tail figure (op_cpu_tail_ms, and the
// wall-clock op_tail_ms) may report, lowest first.
// A fixed ladder keeps the reported percentile the same across runs of
// similar length, so two runs compare like with like.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail is a tail-latency figure with the percentile it was taken at and
// the sample count it rests on.
type tail struct {
	Pct     float64
	Value   float64
	Samples int
	Beyond  int
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)]
}

// rankOf is the 0-based nearest-rank index of the p-th percentile of n
// samples.
func rankOf(n int, p float64) int {
	k := int(float64(n)*p/100+0.9999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// tailOf picks the highest ladder percentile, at most maxPct, with at
// least minBeyond samples ranked above it. It reports ok=false when even
// the median has fewer than minBeyond samples beyond it. Workloads cap
// the percentile below what their usual sample count allows, so a slower
// commit, which completes fewer ops, is still compared at the same
// percentile.
func tailOf(xs []float64, maxPct float64) (tail, bool) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	best, ok := tail{Samples: n}, false
	for _, p := range tailLadder {
		if p > maxPct {
			break
		}
		beyond := n - 1 - rankOf(n, p)
		if beyond < minBeyond {
			break
		}
		best, ok = tail{Pct: p, Value: percentile(sorted, p), Samples: n, Beyond: beyond}, true
	}
	return best, ok
}

// median returns the median of xs (the mean of the middle two for even
// counts), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func msList(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return xs
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never uses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// Linux's CPU-time clocks.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID: all threads
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

// cpuNow returns the CPU time this process has used so far, all threads
// together. The kernel counts only the time the process's threads ran:
// time another process or the hypervisor (steal time) takes from them
// does not count, which a wall clock on a shared host cannot tell apart
// from a slower program.
func cpuNow() time.Duration { return cpuClock(clockProcessCPUTime) }

func cpuClock(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
