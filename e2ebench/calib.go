package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// calibration is a fixed reference computation of the benchmark's own,
// independent of the program under test. The host this benchmark runs on
// is shared, and for minutes at a time it runs the same code up to about
// 2.4 times as slowly: the process's threads are running, only slower,
// so CPU time (see cpuNow) does not strip the slowdown. A run
// therefore times the reference computation between its ops and scales
// its CPU times by refNominal over the reference's median time. The
// host's share of a slowdown cancels out; the program's share, which is
// what a change to the program can move, stays.
//
// The reference mixes the kinds of work the workloads do: branches and
// arithmetic in cache, sorting, map inserts and lookups, and dependent
// loads from a buffer larger than a core's L2 cache. It must not measure
// the program under test, so it allocates nothing (an allocation during
// a collection would pay for the program's garbage), it is timed on its
// own thread's CPU clock (the process clock would also count collector
// threads marking the program's heap meanwhile), and its large buffer is
// mapped outside the Go heap (so it does not raise the collector's heap
// goal for the program).
type calibration struct {
	table []uint64 // in-cache arithmetic and branches
	order []uint64 // sorted afresh by every reference
	work  []uint64
	chase []uint32 // a single-cycle permutation, walked at random
	mem   []byte   // chase's mapping
	m     map[uint64]uint32
	sink  uint64
}

// refNominal is the time the reference computation is scaled to: a
// reported time reads as it would on a host that runs the reference in
// refNominal.
const refNominal = 2 * time.Millisecond

const (
	calTableWords = 512     // 4 KiB
	calCompute    = 100_000 // arithmetic iterations per reference
	calSortWords  = 8_192   // 64 KiB
	calMapKeys    = 4_096   // keys inserted, each then looked up 4 times
	calChaseWords = 1 << 20 // 4 MiB
	calChaseSteps = 8_000   // dependent loads per reference
)

func newCalibration() (*calibration, error) {
	mem, err := syscall.Mmap(-1, 0, 4*calChaseWords, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference buffer: %w", err)
	}
	c := &calibration{table: make([]uint64, calTableWords), order: make([]uint64, calSortWords),
		work: make([]uint64, calSortWords), mem: mem, m: make(map[uint64]uint32, calMapKeys),
		chase: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calChaseWords)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.table {
		x = xorshift(x)
		c.table[i] = x
	}
	for i := range c.order {
		x = xorshift(x)
		c.order[i] = x
	}
	// Sattolo's algorithm: a random permutation with a single cycle, so
	// the walk visits the whole buffer in an order the prefetcher cannot
	// follow.
	for i := range c.chase {
		c.chase[i] = uint32(i)
	}
	for i := len(c.chase) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
	}
	return c, nil
}

// close unmaps the reference buffer.
func (c *calibration) close() error {
	c.chase = nil
	return syscall.Munmap(c.mem)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run performs one reference computation and returns its CPU time.
func (c *calibration) run() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := cpuClock(clockThreadCPUTime)
	x := c.sink | 1
	for i := 0; i < calCompute; i++ {
		x = xorshift(x)
		k := x & (calTableWords - 1)
		if c.table[k]&1 == 0 {
			c.table[k] += x >> 3
		} else {
			c.table[k] ^= x * 0x2545f4914f6cdd1d
		}
	}
	copy(c.work, c.order)
	slices.Sort(c.work)
	clear(c.m)
	for i := 0; i < calMapKeys; i++ {
		c.m[c.order[i]] = uint32(i)
	}
	var found uint32
	for i := 0; i < 4*calMapKeys; i++ {
		found += c.m[c.order[(i*7)%calSortWords]]
	}
	p := uint32(x % calChaseWords)
	for i := 0; i < calChaseSteps; i++ {
		p = c.chase[p]
	}
	c.sink = x + uint64(p) + uint64(found) + c.work[calSortWords/2]
	return cpuClock(clockThreadCPUTime) - c0
}
