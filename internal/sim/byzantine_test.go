package sim

import "testing"

// forgerAdv is a test adversary with a scripted forgery schedule.
type forgerAdv struct {
	plans     map[int][]CrashPlan
	forgeries map[int][]Forgery
}

func (a *forgerAdv) Name() string     { return "test-forger" }
func (a *forgerAdv) Clone() Adversary { return a }
func (a *forgerAdv) Plan(v *View) RoundPlan {
	return RoundPlan{Crashes: a.plans[v.Round], Forgeries: a.forgeries[v.Round]}
}

func perReceiver(n int, f func(j int) int64) []int64 {
	out := make([]int64, n)
	for j := range out {
		out[j] = f(j)
	}
	return out
}

func TestForgeryEquivocates(t *testing.T) {
	const n = 4
	inputs := uniformInputs(n, 0)
	procs := mkProcs(n, 2, 3, inputs)
	adv := &forgerAdv{forgeries: map[int][]Forgery{
		1: {{Sender: 0, PerReceiver: perReceiver(n, func(j int) int64 { return int64(j % 2) })}},
		2: {{Sender: 0, PerReceiver: perReceiver(n, func(j int) int64 { return int64(j % 2) })}},
	}}
	e, err := NewExecution(Config{N: n, T: 1}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(adv)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Corrupt(0) {
		t.Fatal("forged sender not marked corrupt")
	}
	if res.Survivors != n-1 {
		t.Fatalf("survivors = %d, want %d (corrupt excluded)", res.Survivors, n-1)
	}
	// Receivers saw per-id values from p0 in round 2's inbox (round-1
	// messages): p1 saw 1, p2 saw 0.
	p1 := procs[1].(*testProc)
	p2 := procs[2].(*testProc)
	saw := func(tp *testProc, idx int) (int64, bool) {
		for _, m := range tp.recvLog[idx] {
			if m.From == 0 {
				return m.Payload, true
			}
		}
		return 0, false
	}
	v1, ok1 := saw(p1, 1)
	v2, ok2 := saw(p2, 1)
	if !ok1 || !ok2 || v1 != 1 || v2 != 0 {
		t.Fatalf("equivocation not delivered: p1 got (%d,%v), p2 got (%d,%v)", v1, ok1, v2, ok2)
	}
}

func TestForgerySilentRound(t *testing.T) {
	const n = 3
	inputs := uniformInputs(n, 1)
	procs := mkProcs(n, 2, 3, inputs)
	adv := &forgerAdv{forgeries: map[int][]Forgery{
		1: {{Sender: 0, Silent: true}},
	}}
	e, err := NewExecution(Config{N: n, T: 1}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(adv); err != nil {
		t.Fatal(err)
	}
	p1 := procs[1].(*testProc)
	for _, m := range p1.recvLog[1] {
		if m.From == 0 {
			t.Fatal("silent corrupt process delivered a message")
		}
	}
}

func TestCorruptionBudgetShared(t *testing.T) {
	const n = 5
	inputs := uniformInputs(n, 0)
	procs := mkProcs(n, 2, 3, inputs)
	adv := &forgerAdv{
		plans: map[int][]CrashPlan{1: {{Victim: 3}}},
		forgeries: map[int][]Forgery{
			1: {
				{Sender: 0, PerReceiver: perReceiver(n, func(int) int64 { return 1 })},
				{Sender: 1, PerReceiver: perReceiver(n, func(int) int64 { return 1 })},
			},
		},
	}
	e, err := NewExecution(Config{N: n, T: 2}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(adv)
	if err != nil {
		t.Fatal(err)
	}
	// Budget 2: two corruptions land first (forgeries applied before
	// crash plans), so the crash of p3 must have been refused.
	if e.CorruptCount() != 2 {
		t.Fatalf("corrupt count = %d, want 2", e.CorruptCount())
	}
	if res.Crashes != 0 {
		t.Fatalf("crashes = %d, want 0 (budget exhausted by corruptions)", res.Crashes)
	}
	if res.Survivors != 3 {
		t.Fatalf("survivors = %d, want 3", res.Survivors)
	}
}

func TestMalformedForgerySkipped(t *testing.T) {
	const n = 3
	inputs := uniformInputs(n, 0)
	procs := mkProcs(n, 1, 2, inputs)
	adv := &forgerAdv{forgeries: map[int][]Forgery{
		1: {
			{Sender: -1, PerReceiver: perReceiver(n, func(int) int64 { return 1 })},
			{Sender: 0, PerReceiver: []int64{1}}, // wrong length
		},
	}}
	e, err := NewExecution(Config{N: n, T: 2}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(adv); err != nil {
		t.Fatal(err)
	}
	if e.CorruptCount() != 0 {
		t.Fatalf("malformed forgeries corrupted %d processes", e.CorruptCount())
	}
}

func TestByzantineValidityExcludesCorruptInputs(t *testing.T) {
	// Correct processes all hold 1; the corrupt process holds 0. The
	// validity condition binds to the correct inputs only, so deciding 1
	// is valid.
	const n = 4
	inputs := []int{0, 1, 1, 1}
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = &testProc{input: 1, decideAt: 1, haltAt: 2} // all decide 1
	}
	adv := &forgerAdv{forgeries: map[int][]Forgery{
		1: {{Sender: 0, Silent: true}},
	}}
	e, err := NewExecution(Config{N: n, T: 1}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Validity {
		t.Fatal("validity must bind to correct inputs only")
	}
	if !res.Agreement || res.Survivors != 3 {
		t.Fatalf("agreement=%v survivors=%d", res.Agreement, res.Survivors)
	}
}

func TestCrashingCorruptProcessIgnored(t *testing.T) {
	const n = 4
	inputs := uniformInputs(n, 0)
	procs := mkProcs(n, 1, 3, inputs)
	adv := &forgerAdv{
		forgeries: map[int][]Forgery{1: {{Sender: 0, Silent: true}}},
		plans:     map[int][]CrashPlan{2: {{Victim: 0}}},
	}
	e, err := NewExecution(Config{N: n, T: 3}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(adv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 0 {
		t.Fatalf("crash of a corrupt process must be a no-op, got %d crashes", res.Crashes)
	}
}

func TestCloneCopiesCorruption(t *testing.T) {
	const n = 3
	inputs := uniformInputs(n, 0)
	procs := mkProcs(n, 2, 4, inputs)
	e, err := NewExecution(Config{N: n, T: 1}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepPhaseA(); err != nil {
		t.Fatal(err)
	}
	err = e.FinishRound(RoundPlan{Forgeries: []Forgery{
		{Sender: 0, PerReceiver: perReceiver(n, func(int) int64 { return 1 })},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := e.Clone()
	if !c.Corrupt(0) {
		t.Fatal("clone lost corruption state")
	}
	if c.Budget() != 0 {
		t.Fatalf("clone budget = %d, want 0", c.Budget())
	}
}
