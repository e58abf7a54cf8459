package sim

// Adaptive-omission extension of the fail-stop engine. The paper's model
// is fail-stop, but Hajiaghayi–Kowalski–Olkowski (arXiv 2405.04762)
// analyze consensus under an adversary that silences links instead of
// crashing processes. The engine models the unrecoverable case: an
// omission victim's outgoing links go silent from the current round on
// (with CrashPlan-style partial delivery of its in-flight message), so
// it is send-omission faulty — indistinguishable from a crash to every
// receiver — and is demoted, charged against Config.FaultBudget rather
// than the adversary's crash budget T. This mirrors exactly the
// netsim runner's omission-demotion machinery, keeping the two fault
// ledgers (Crashes vs Faults.Demoted) separate on every lane.

// Omitter was the optional adversary extension for adaptive omissions.
//
// Deprecated: omissions are RoundPlan.Omissions, returned by Plan. No
// adversary implements Omitter and no engine reads it. It survives only
// for the guard in the end-to-end benchmark (e2ebench/lockstep.go); the
// next change to that benchmark removes both.
type Omitter interface {
	Adversary
	Omit(v *View) []CrashPlan
}
