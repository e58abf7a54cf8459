package adversary

import (
	"testing"

	"synran/internal/sim"
	"synran/internal/wire"
)

func TestWavesScheduleIsCommitted(t *testing.T) {
	// Two Waves with the same parameters plan identical schedules, and
	// Plan ignores everything in the view except the round number.
	a := NewWaves(16, 8, 7)
	b := NewWaves(16, 8, 7)
	for r := 1; r <= 20; r++ {
		va := viewFor(bitsPayloads(8, 8), 8, 1)
		va.Round = r
		vb := viewFor(bitsPayloads(16, 0), 8, 99) // different payloads/rng
		vb.Round = r
		pa, pb := a.Plan(va).Crashes, b.Plan(vb).Crashes
		if len(pa) != len(pb) {
			t.Fatalf("round %d: plan lengths differ (%d vs %d)", r, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i].Victim != pb[i].Victim {
				t.Fatalf("round %d: victims differ", r)
			}
		}
	}
}

func TestWavesBudget(t *testing.T) {
	w := NewWaves(32, 10, 3)
	total := 0
	for _, plans := range w.plans {
		total += len(plans)
	}
	if total != 10 {
		t.Fatalf("schedule plans %d crashes, want exactly t=10", total)
	}
	seen := map[int]bool{}
	for _, plans := range w.plans {
		for _, p := range plans {
			if seen[p.Victim] {
				t.Fatalf("victim %d scheduled twice", p.Victim)
			}
			seen[p.Victim] = true
		}
	}
}

func TestWavesDifferentSeedsDiffer(t *testing.T) {
	a, b := NewWaves(32, 16, 1), NewWaves(32, 16, 2)
	same := true
	for r := 1; r <= 40 && same; r++ {
		va := viewFor(bitsPayloads(16, 16), 16, 1)
		va.Round = r
		vb := viewFor(bitsPayloads(16, 16), 16, 1)
		vb.Round = r
		pa, pb := a.Plan(va).Crashes, b.Plan(vb).Crashes
		if len(pa) != len(pb) {
			same = false
			break
		}
		for i := range pa {
			if pa[i].Victim != pb[i].Victim {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestLeaderKillerSplitsOnDifferingBits(t *testing.T) {
	// Senders: p0 bit 0, p1 bit 1 → kill p0 only.
	v := viewFor([]int64{wire.Plain(0), wire.Plain(1), wire.Plain(0), wire.Plain(1)}, 4, 1)
	plans := LeaderKiller{}.Plan(v).Crashes
	if len(plans) != 1 || plans[0].Victim != 0 {
		t.Fatalf("plans = %+v, want single crash of p0", plans)
	}
	if plans[0].Deliver == nil || plans[0].Deliver.Count() != 2 {
		t.Fatalf("leader message must reach the upper half")
	}
}

func TestLeaderKillerKillsPrefix(t *testing.T) {
	// p0 and p1 share bit 0; p2 differs → kill p0 and p1.
	v := viewFor([]int64{wire.Plain(0), wire.Plain(0), wire.Plain(1), wire.Plain(1)}, 4, 1)
	plans := LeaderKiller{}.Plan(v).Crashes
	if len(plans) != 2 || plans[0].Victim != 0 || plans[1].Victim != 1 {
		t.Fatalf("plans = %+v, want crashes of p0 and p1", plans)
	}
}

func TestLeaderKillerQuietOnUnanimity(t *testing.T) {
	v := viewFor(bitsPayloads(4, 0), 4, 1)
	if plans := (LeaderKiller{}).Plan(v).Crashes; plans != nil {
		t.Fatalf("unanimous senders attacked: %v", plans)
	}
}

func TestLeaderKillerRespectsBudget(t *testing.T) {
	v := viewFor([]int64{wire.Plain(0), wire.Plain(0), wire.Plain(1)}, 1, 1)
	if plans := (LeaderKiller{}).Plan(v).Crashes; plans != nil {
		t.Fatalf("prefix of 2 exceeds budget 1, want no attack, got %v", plans)
	}
}

func TestComboConcatenatesAndClones(t *testing.T) {
	s1 := &Schedule{Plans: map[int][]sim.CrashPlan{1: {{Victim: 0}}}}
	s2 := &Schedule{Plans: map[int][]sim.CrashPlan{1: {{Victim: 1}}}}
	c := NewCombo(s1, s2)
	if c.Name() != "combo(schedule+schedule)" {
		t.Fatalf("name = %q", c.Name())
	}
	v := viewFor(bitsPayloads(2, 2), 4, 1)
	plans := c.Plan(v).Crashes
	if len(plans) != 2 || plans[0].Victim != 0 || plans[1].Victim != 1 {
		t.Fatalf("plans = %+v", plans)
	}
	clone := c.Clone().(*Combo)
	if len(clone.Parts) != 2 {
		t.Fatal("clone lost parts")
	}
}
