package adversary_test

// Composition guards: a wrapper adversary must pass on every part of its
// children's round plans. A wrapper that forwards only crash plans runs
// a wrapped Equivocator without corruptions and a wrapped Omission
// without demotions, and no engine core reports an error.

import (
	"reflect"
	"testing"

	"synran"
	"synran/internal/adversary"
	"synran/internal/sim"
)

// runOn runs protocol at (n, t, faultBudget, seed) with half/half inputs
// under adv on the given engine core.
func runOn(t *testing.T, engine, protocol string, n, tt, faultBudget int, seed uint64, adv sim.Adversary) *sim.Result {
	t.Helper()
	inputs := synran.HalfHalfInputs(n)
	procs, err := synran.NewProtocol(protocol, n, tt, inputs, seed)
	if err != nil {
		t.Fatalf("protocol: %v", err)
	}
	cfg := sim.Config{N: n, T: tt, FaultBudget: faultBudget, Engine: engine}
	exec, err := sim.NewExecution(cfg, procs, inputs, seed)
	if err != nil {
		t.Fatalf("execution: %v", err)
	}
	res, err := exec.Run(adv)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestComboForwardsForgeries(t *testing.T) {
	for _, engine := range []string{sim.EngineObject, sim.EngineSoA} {
		t.Run(engine, func(t *testing.T) {
			run := func(adv sim.Adversary) *sim.Result {
				return runOn(t, engine, synran.ProtocolPhaseKing, 13, 3, 0, 7, adv)
			}
			bare := run(&adversary.Equivocator{Corruptions: 3})
			if bare.Survivors != 10 {
				t.Fatalf("bare equivocator: %d survivors, want 10", bare.Survivors)
			}
			combo := run(adversary.NewCombo(&adversary.Equivocator{Corruptions: 3}))
			if !reflect.DeepEqual(combo, bare) {
				t.Fatalf("combo(equivocator) result differs from the bare equivocator:\ncombo %+v\nbare  %+v", combo, bare)
			}
		})
	}
}

func TestLateForwardsOmissions(t *testing.T) {
	for _, engine := range []string{sim.EngineObject, sim.EngineSoA} {
		t.Run(engine, func(t *testing.T) {
			late := &adversary.Late{Inner: &adversary.Omission{Mode: "split", Budget: 2}, Tag: "split"}
			res := runOn(t, engine, synran.ProtocolOmitFlood, 9, 2, 2, 7, late)
			if res.Faults.Demoted == 0 {
				t.Fatalf("late(omission-split) demoted nobody: %+v", res.Faults)
			}
		})
	}
}
