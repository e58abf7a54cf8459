package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"synran/internal/adversary"
	"synran/internal/sim"
)

// fromRound plays inner only from round from on, so a SoA execution
// spends its first rounds in tally mode before inner's forgeries move
// it to the object path.
type fromRound struct {
	from  int
	inner sim.Adversary
}

func (a fromRound) Name() string         { return "from-round" }
func (a fromRound) Clone() sim.Adversary { return fromRound{from: a.from, inner: a.inner.Clone()} }
func (a fromRound) Plan(v *sim.View) sim.RoundPlan {
	if v.Round < a.from {
		return sim.RoundPlan{}
	}
	return a.inner.Plan(v)
}

// bufCase is one run for the object-buffer tests: SynRan at size n on
// engine under SplitVote, plus, when byzantine, an equivocator that
// corrupts two processes from round 3 on.
type bufCase struct {
	engine    string
	n         int
	byzantine bool
}

func (c bufCase) String() string {
	return fmt.Sprintf("engine=%s n=%d byzantine=%v", c.engine, c.n, c.byzantine)
}

func (c bufCase) adversary() sim.Adversary {
	var adv sim.Adversary = &adversary.SplitVote{}
	if c.byzantine {
		adv = adversary.NewCombo(adv, fromRound{from: 3, inner: &adversary.Equivocator{Corruptions: 2}})
	}
	return adv
}

// runDigest resets e (nil: a fresh execution) to case c at seed, runs it
// under a Digest and returns the execution, the digest and the result.
func runDigest(t *testing.T, e *sim.Execution, c bufCase, seed uint64) (*sim.Execution, uint64, *sim.Result) {
	t.Helper()
	e = newSynRan(t, e, c.n, c.engine, seed)
	d := sim.NewDigest()
	e.SetObserver(d)
	res, err := e.Run(c.adversary())
	if err != nil {
		t.Fatalf("%v seed=%d: %v", c, seed, err)
	}
	if c.byzantine && e.CorruptCount() == 0 {
		t.Fatalf("%v seed=%d: the equivocator corrupted no one", c, seed)
	}
	return e, d.Sum(), res
}

func TestObjectBuffersAcrossReset(t *testing.T) {
	// An execution in tally mode leaves the object path's delivery masks
	// and inboxes at length 0. One Execution reused through Reset across
	// engines, sizes and Byzantine fall-backs out of tally mode must run
	// every case exactly as a fresh execution does.
	cases := []bufCase{
		{sim.EngineObject, 64, false},
		{sim.EngineSoA, 33, false},
		{sim.EngineObject, 100, false},
		{sim.EngineSoA, 64, true},
		{sim.EngineObject, 20, true},
		{sim.EngineSoA, 128, true},
		{sim.EngineSoA, 64, false},
		{sim.EngineObject, 64, false},
	}
	reused := &sim.Execution{}
	for i, c := range cases {
		seed := uint64(i + 1)
		_, want, wantRes := runDigest(t, nil, c, seed)
		_, got, gotRes := runDigest(t, reused, c, seed)
		if got != want || !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("case %d (%v): reused execution digest %x result %+v, fresh %x %+v",
				i, c, got, gotRes, want, wantRes)
		}
	}
}

func TestCloneIntoAcrossEngines(t *testing.T) {
	// CloneInto a tally-mode execution into a shell that ran the object
	// path, and an object-path execution into a shell that ran tally
	// mode; each fork, driven on from round 2, must finish exactly as a
	// fresh run of its case. The Byzantine cases fork in tally mode and
	// fall back to the object path inside the recycled shell.
	for i, c := range []bufCase{
		{sim.EngineSoA, 64, false},
		{sim.EngineObject, 64, false},
		{sim.EngineSoA, 64, true},
		{sim.EngineSoA, 40, true},
		{sim.EngineObject, 100, true},
	} {
		seed := uint64(10 + i)
		_, want, wantRes := runDigest(t, nil, c, seed)

		// The shell ends on the other path: a SoA shell stays in tally
		// mode, with its object buffers at length 0.
		other := bufCase{engine: sim.EngineObject, n: 64}
		if c.engine == sim.EngineObject {
			other.engine = sim.EngineSoA
		}
		shell, _, _ := runDigest(t, nil, other, seed+100)

		e := newSynRan(t, nil, c.n, c.engine, seed)
		d := sim.NewDigest()
		e.SetObserver(d)
		adv := c.adversary()
		for e.Round() < 2 {
			if _, err := e.StepRound(adv); err != nil {
				t.Fatal(err)
			}
		}
		fork := e.CloneInto(shell)
		fd := d.Clone()
		fork.SetObserver(fd)
		if err := fork.Drive(adv.Clone()); err != nil {
			t.Fatalf("case %d (%v): %v", i, c, err)
		}
		if c.byzantine && fork.CorruptCount() == 0 {
			t.Fatalf("case %d (%v): the fork corrupted no one", i, c)
		}
		if got, gotRes := fd.Sum(), fork.Result(); got != want || !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("case %d (%v): fork digest %x result %+v, fresh %x %+v", i, c, got, gotRes, want, wantRes)
		}
	}
}
