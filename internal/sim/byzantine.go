package sim

// Byzantine extension of the fail-stop engine. The paper's own model is
// fail-stop, but its introduction contrasts it with Byzantine agreement
// ("efficient t+1 round agreement protocols are known even for Byzantine
// adversaries [GM93]"); internal/protocol/phaseking and experiment E14
// reproduce that context. A Byzantine adversary CORRUPTS processes: a
// corrupted process's honest state machine is frozen and the adversary
// supplies its outgoing payloads each round, per receiver (equivocation).
// Corruptions draw from the same budget T as crashes. Corrupt processes
// are faulty: they are excluded from agreement, validity, and
// termination accounting, exactly like crashed ones.

// Forgery dictates what one corrupted process sends this round.
// PerReceiver[j] is the payload delivered to process j; Silent marks a
// round in which the corrupt process sends nothing.
type Forgery struct {
	Sender      int
	PerReceiver []int64
	Silent      bool
}

// Forger was the optional adversary extension for Byzantine behaviour.
//
// Deprecated: forgeries are RoundPlan.Forgeries, returned by Plan. No
// adversary implements Forger and no engine reads it. It survives only
// for the guard in the end-to-end benchmark (e2ebench/lockstep.go); the
// next change to that benchmark removes both.
type Forger interface {
	Forge(v *View) []Forgery
}

// Corrupt reports whether process p has been corrupted.
func (e *Execution) Corrupt(p int) bool { return e.corrupt[p] }

// CorruptCount returns the number of corrupted processes.
func (e *Execution) CorruptCount() int {
	c := 0
	for _, b := range e.corrupt {
		if b {
			c++
		}
	}
	return c
}

// applyForgeries corrupts new victims (budget permitting) and records
// this round's forged payload tables. The first forgery naming a process
// corrupts it, spending one unit of the T budget; a corrupt process with
// no forgery in a round stays silent. Invalid forgeries (bad sender,
// crashed sender, malformed table, budget exhausted) are skipped.
func (e *Execution) applyForgeries(forgeries []Forgery) {
	if e.forged == nil {
		e.forged = make(map[int]*Forgery)
	}
	for i := range forgeries {
		f := forgeries[i]
		v := f.Sender
		if v < 0 || v >= e.cfg.N || !e.alive[v] {
			continue
		}
		if !f.Silent && len(f.PerReceiver) != e.cfg.N {
			continue
		}
		if !e.corrupt[v] {
			if e.crashed+e.CorruptCount() >= e.cfg.T {
				continue
			}
			e.corrupt[v] = true
		}
		e.forged[v] = &f
	}
}

// forgedPayload returns the payload a corrupted sender delivers to
// receiver j this round, and whether it sends to j at all.
func (e *Execution) forgedPayload(sender, j int) (int64, bool) {
	f, ok := e.forged[sender]
	if !ok || f.Silent {
		return 0, false
	}
	return f.PerReceiver[j], true
}
