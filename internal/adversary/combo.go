package adversary

import "synran/internal/sim"

// Combo concatenates the plans of several adversaries each round: each
// part's crashes, omissions and forgeries, in part order (the engine
// deduplicates victims and enforces the budgets). Use
// it to compose orthogonal levers — e.g. SplitVote's band control with
// LeaderKiller's coordinator attack against the leader-coin protocol.
type Combo struct {
	Parts []sim.Adversary
}

var _ sim.Adversary = (*Combo)(nil)

// NewCombo builds a composite adversary.
func NewCombo(parts ...sim.Adversary) *Combo {
	return &Combo{Parts: parts}
}

// Name implements sim.Adversary.
func (c *Combo) Name() string {
	name := "combo("
	for i, p := range c.Parts {
		if i > 0 {
			name += "+"
		}
		name += p.Name()
	}
	return name + ")"
}

// Plan implements sim.Adversary.
func (c *Combo) Plan(v *sim.View) sim.RoundPlan {
	var plan sim.RoundPlan
	for _, p := range c.Parts {
		part := p.Plan(v)
		plan.Crashes = append(plan.Crashes, part.Crashes...)
		plan.Omissions = append(plan.Omissions, part.Omissions...)
		plan.Forgeries = append(plan.Forgeries, part.Forgeries...)
	}
	return plan
}

// Clone implements sim.Adversary.
func (c *Combo) Clone() sim.Adversary {
	parts := make([]sim.Adversary, len(c.Parts))
	for i, p := range c.Parts {
		parts[i] = p.Clone()
	}
	return &Combo{Parts: parts}
}
