package main

import (
	"reflect"
	"testing"

	"synran/internal/adversary"
	"synran/internal/sim"
)

func TestCrashFirstPrependsRoundOneCrash(t *testing.T) {
	inner := &adversary.Schedule{Plans: map[int][]sim.CrashPlan{
		1: {{Victim: 2}},
		2: {{Victim: 3}},
	}}
	var adv sim.Adversary = crashFirst{Adversary: inner, victim: 0}
	adv = adv.Clone()
	for round, want := range map[int][]sim.CrashPlan{
		1: {{Victim: 0}, {Victim: 2}},
		2: {{Victim: 3}},
	} {
		got := adv.Plan(sim.NewView(sim.ViewState{Round: round, N: 4})).Crashes
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: crashes %+v, want %+v", round, got, want)
		}
	}
}
