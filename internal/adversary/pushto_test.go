package adversary

import (
	"testing"

	"synran/internal/sim"
	"synran/internal/wire"
)

func TestPushToCrashesOppositeSenders(t *testing.T) {
	for _, target := range []int{0, 1} {
		a := &PushTo{Value: target}
		v := viewFor(bitsPayloads(3, 3), 6, 1)
		plans := a.Plan(v).Crashes
		if len(plans) != 3 {
			t.Fatalf("target %d: planned %d crashes, want all 3 opposite senders", target, len(plans))
		}
		for _, p := range plans {
			if wire.Bit(v.Payload(p.Victim)) == target {
				t.Fatalf("target %d: crashed a same-value sender %d", target, p.Victim)
			}
		}
	}
}

func TestPushToPerRoundCap(t *testing.T) {
	a := &PushTo{Value: 1, PerRound: 2}
	v := viewFor(bitsPayloads(2, 6), 8, 1)
	if plans := a.Plan(v).Crashes; len(plans) != 2 {
		t.Fatalf("planned %d crashes, want the per-round cap 2", len(plans))
	}
}

func TestPushToBudgetCap(t *testing.T) {
	a := &PushTo{Value: 1, PerRound: 10}
	v := viewFor(bitsPayloads(2, 6), 3, 1)
	if plans := a.Plan(v).Crashes; len(plans) != 3 {
		t.Fatalf("planned %d crashes, want the budget 3", len(plans))
	}
	v.Budget = 0
	if plans := a.Plan(v).Crashes; plans != nil {
		t.Fatalf("exhausted budget still planned %v", plans)
	}
}

func TestPushToSkipsFloodSenders(t *testing.T) {
	a := &PushTo{Value: 1}
	v := viewFor([]int64{wire.Flood(wire.MaskZero), wire.Plain(0), wire.Plain(1)}, 3, 1)
	plans := a.Plan(v).Crashes
	if len(plans) != 1 || plans[0].Victim != 1 {
		t.Fatalf("plans = %v, want only the plain 0-sender", plans)
	}
}

func TestNamesAndClones(t *testing.T) {
	cases := []sim.Adversary{
		None{},
		&Schedule{Plans: map[int][]sim.CrashPlan{}},
		&Random{},
		&MassCrash{},
		&SplitVote{},
		&PushTo{Value: 0},
		&PushTo{Value: 1},
		NewWaves(4, 2, 1),
		LeaderKiller{},
		NewCombo(None{}),
		&Equivocator{},
	}
	seen := map[string]bool{}
	for _, a := range cases {
		name := a.Name()
		if name == "" {
			t.Fatalf("%T has an empty name", a)
		}
		if seen[name] {
			t.Fatalf("duplicate adversary name %q", name)
		}
		seen[name] = true
		c := a.Clone()
		if c == nil || c.Name() != name {
			t.Fatalf("%T clone mismatch", a)
		}
	}
}

func TestEquivocatorForgesWithinBudget(t *testing.T) {
	a := &Equivocator{Corruptions: 2}
	v := viewFor(bitsPayloads(3, 3), 2, 1)
	fs := a.Plan(v).Forgeries
	if len(fs) != 2 {
		t.Fatalf("forged %d, want 2", len(fs))
	}
	for _, f := range fs {
		if len(f.PerReceiver) != v.N {
			t.Fatalf("forgery table has %d entries", len(f.PerReceiver))
		}
		// Equivocation: odd receivers get 1, even get 0.
		if f.PerReceiver[0] != 0 || f.PerReceiver[1] != 1 {
			t.Fatalf("not equivocating: %v", f.PerReceiver[:2])
		}
	}
	if plans := a.Plan(v).Crashes; plans != nil {
		t.Fatal("equivocator must not crash anyone")
	}
}

func TestEquivocatorDefaultsToFullBudget(t *testing.T) {
	a := &Equivocator{}
	v := viewFor(bitsPayloads(4, 4), 3, 1)
	v.T = 3
	if fs := a.Plan(v).Forgeries; len(fs) != 3 {
		t.Fatalf("forged %d, want the full budget 3", len(fs))
	}
}
