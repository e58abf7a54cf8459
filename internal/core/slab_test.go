package core

import (
	"reflect"
	"runtime/debug"
	"testing"

	"synran/internal/adversary"
	"synran/internal/rng"
	"synran/internal/sim"
)

func TestNewProcsAllocsConstant(t *testing.T) {
	// NewProcs builds the vector from three slabs, so its allocation
	// count does not grow with n. The collector is off while counting: a
	// cycle started by the multi-megabyte slabs allocates for itself.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	counts := map[int]float64{}
	for _, n := range []int{1000, 10000} {
		inputs := inputsHalf(n)
		counts[n] = testing.AllocsPerRun(5, func() {
			if _, err := NewProcs(n, inputs, 7, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if counts[n] > 4 {
			t.Fatalf("NewProcs(n=%d) allocates %.0f times, want at most 4", n, counts[n])
		}
	}
	if counts[1000] != counts[10000] {
		t.Fatalf("NewProcs allocations grow with n: %v", counts)
	}
}

func TestNewProcMatchesNewProcs(t *testing.T) {
	// NewProc and NewProcs share one initializer: process i of the vector
	// is the process NewProc builds from the seed's i-th split stream.
	const n, seed = 37, 11
	inputs := inputsHalf(n)
	for _, opts := range []Options{{}, {SymmetricCoin: true, FloodRounds: 3}, {SharedCoinSeed: 5}} {
		procs, err := NewProcs(n, inputs, seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range procs {
			want, err := NewProc(i, n, inputs[i], rng.New(seed).Split(uint64(i)), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.(*Proc), want) {
				t.Fatalf("opts %+v process %d: NewProcs built %+v, NewProc %+v", opts, i, p, want)
			}
		}
	}
}

// procState is a deep copy of one process, its stream and history
// included, for checking that nothing reaches across a slab.
type procState struct {
	p    Proc
	s    rng.Stream
	hist []int
}

func stateOf(p *Proc) procState {
	st := procState{p: *p, s: *p.rng, hist: append([]int(nil), p.nHist...)}
	st.p.rng, st.p.nHist = nil, nil
	return st
}

func TestSlabNeighboursIndependent(t *testing.T) {
	// Processes share their vector's slabs. Growing one process's
	// history past its first 16 entries, cloning it, copying into it,
	// syncing it from a kernel and reseeding it must leave every other
	// process's state and stream as they were.
	const n, mid = 20, 7
	procs, err := NewProcs(n, inputsHalf(n), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every process starts a history, so one that reached into a
	// neighbour's storage would change what the neighbour holds. The coin
	// band at N' = n keeps them flipping in the probabilistic stage, one
	// history entry per round.
	inbox := mkInbox(11, 8)
	for _, q := range procs {
		q.Round(1, nil)
		for r := 2; r <= 4; r++ {
			q.Round(r, inbox)
		}
	}
	p := procs[mid].(*Proc)
	var before []procState
	for _, q := range procs {
		before = append(before, stateOf(q.(*Proc)))
	}
	checkOthers := func(step string) {
		t.Helper()
		for i, q := range procs {
			if i != mid && !reflect.DeepEqual(stateOf(q.(*Proc)), before[i]) {
				t.Fatalf("after %s: process %d changed from %+v to %+v", step, i, before[i], stateOf(q.(*Proc)))
			}
		}
	}

	// One more message a round than the neighbours heard, so the entries
	// mid writes differ from theirs.
	inbox = mkInbox(12, 8)
	for r := 5; r <= 22; r++ {
		p.Round(r, inbox)
	}
	if p.Stage() != int(stageProb) || len(p.nHist) <= 16 {
		t.Fatalf("history grew to %d entries in stage %d, want > 16 in the probabilistic stage", len(p.nHist), p.Stage())
	}
	checkOthers("growing the history")

	c := p.Clone().(*Proc)
	c.Round(23, inbox)
	c.Reseed(99)
	checkOthers("driving a clone")

	other, err := NewProcs(n, inputsHalf(n), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.CopyFrom(other[mid]) {
		t.Fatal("CopyFrom refused a *Proc")
	}
	p.Round(1, nil)
	for r := 2; r <= 20; r++ {
		p.Round(r, inbox)
	}
	checkOthers("CopyFrom and rounds")

	// Sync mid from a kernel whose column for it holds a longer history
	// and an advanced stream: KernelSync rebuilds both in place.
	k := p.BuildKernel(procs).(*kernel)
	k.histLen[mid] = 40
	k.streams[mid].Uint64()
	k.KernelSync(mid, p)
	if len(p.nHist) != 40 || p.rng.Uint64() != k.streams[mid].Uint64() {
		t.Fatalf("KernelSync left a history of %d entries or a stream out of step", len(p.nHist))
	}
	checkOthers("KernelSync")

	p.Reseed(12345)
	p.rng.Uint64()
	checkOthers("Reseed")
}

func TestSoAVectorNeverAllocatesHistory(t *testing.T) {
	// nHist is the object path's: a whole execution on the columnar
	// kernel leaves every process's history nil, while the same vector
	// on the object path fills it.
	const n = 64
	inputs := inputsHalf(n)
	for _, engine := range []string{sim.EngineSoA, sim.EngineObject} {
		procs, err := NewProcs(n, inputs, 9, Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.NewExecution(sim.Config{N: n, T: n - 1, Engine: engine}, procs, inputs, 9)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(&adversary.SplitVote{}); err != nil {
			t.Fatal(err)
		}
		withHist := 0
		for _, q := range procs {
			if q.(*Proc).nHist != nil {
				withHist++
			}
		}
		if want := map[string]bool{sim.EngineSoA: false, sim.EngineObject: true}[engine]; (withHist > 0) != want {
			t.Fatalf("engine %s: %d of %d processes hold a history", engine, withHist, n)
		}
	}
}
