package adversary

import (
	"synran/internal/sim"
	"synran/internal/wire"
)

// PushTo steers a threshold-voting protocol toward the given value by
// crashing, every round, up to PerRound senders of the opposite value
// (messages fully hidden). Against SynRan, pushing toward 1 exploits the
// one-side-bias rule (once no zeros are visible, everyone proposes 1);
// pushing toward 0 starves the one-count below the decide-0 threshold.
//
// The valency estimator uses PushTo{0} and PushTo{1} as the extreme
// members of its adversary pool: the empirical min and max probability
// of deciding 1 over the pool approximate the paper's min r(α) and
// max r(α).
type PushTo struct {
	// Value is the decision value to push toward (0 or 1).
	Value int
	// PerRound caps crashes per round (0 means the paper's class-B cap is
	// applied by the caller through the execution's total budget only).
	PerRound int

	// plans is reusable scratch; the returned slice is valid until the
	// next Plan call, which the engine contract allows.
	plans []sim.CrashPlan
}

var _ sim.Adversary = (*PushTo)(nil)
var _ sim.ReusableAdversary = (*PushTo)(nil)

// Name implements sim.Adversary.
func (a *PushTo) Name() string {
	if a.Value == 0 {
		return "push0"
	}
	return "push1"
}

// Clone implements sim.Adversary.
func (a *PushTo) Clone() sim.Adversary {
	c := *a
	c.plans = nil // scratch is never shared between clones
	return &c
}

// ResetAdversary implements sim.ReusableAdversary. PushTo keeps no
// cross-round state, so only the scratch capacity is retained.
func (a *PushTo) ResetAdversary() {}

// Plan implements sim.Adversary.
func (a *PushTo) Plan(v *sim.View) sim.RoundPlan {
	limit := v.Budget
	if a.PerRound > 0 && a.PerRound < limit {
		limit = a.PerRound
	}
	if limit == 0 {
		return sim.RoundPlan{}
	}
	opposite := 1 - a.Value
	plans := a.plans[:0]
	for i := 0; i < v.N && len(plans) < limit; i++ {
		if !v.IsSending(i) || wire.IsFlood(v.Payload(i)) {
			continue
		}
		if wire.Bit(v.Payload(i)) == opposite {
			plans = append(plans, sim.CrashPlan{Victim: i})
		}
	}
	a.plans = plans
	return sim.RoundPlan{Crashes: plans}
}
