package adversary

import (
	"synran/internal/sim"
	"synran/internal/wire"
)

// Equivocator is a Byzantine adversary for the corruption-enabled
// engine: it corrupts the processes with the lowest ids at the first
// round (in Phase King those are the kings of the first phases — the
// worst case, wasting one phase per corrupt king) and equivocates every
// round: even-id receivers are told 1, odd-id receivers 0. If the
// corrupted process is the current phase's king, the split king
// broadcast is exactly the attack the king-round lemma must survive.
type Equivocator struct {
	// Corruptions is the number of processes to corrupt (clamped to the
	// budget). Victims are ids 0..Corruptions-1.
	Corruptions int
}

var _ sim.Adversary = (*Equivocator)(nil)

// Name implements sim.Adversary.
func (a *Equivocator) Name() string { return "equivocator" }

// Clone implements sim.Adversary.
func (a *Equivocator) Clone() sim.Adversary {
	c := *a
	return &c
}

// Plan implements sim.Adversary. The Equivocator never crashes anyone —
// corruption is strictly more powerful — so its plan is forgeries only.
func (a *Equivocator) Plan(v *sim.View) sim.RoundPlan {
	want := a.Corruptions
	if want <= 0 {
		want = v.T
	}
	var forgeries []sim.Forgery
	corrupted := 0
	for i := 0; i < v.N && corrupted < want; i++ {
		if !v.IsAlive(i) {
			continue
		}
		if !v.IsCorrupt(i) && v.Budget-len(forgeriesNew(forgeries, v)) <= 0 {
			break
		}
		per := make([]int64, v.N)
		for j := 0; j < v.N; j++ {
			per[j] = wire.Plain(j % 2) // 1 to odd ids, 0 to even ids
		}
		forgeries = append(forgeries, sim.Forgery{Sender: i, PerReceiver: per})
		corrupted++
	}
	return sim.RoundPlan{Forgeries: forgeries}
}

// forgeriesNew counts the forgeries naming not-yet-corrupted processes
// (the ones that will spend budget).
func forgeriesNew(fs []sim.Forgery, v *sim.View) []sim.Forgery {
	var fresh []sim.Forgery
	for _, f := range fs {
		if !v.IsCorrupt(f.Sender) {
			fresh = append(fresh, f)
		}
	}
	return fresh
}
