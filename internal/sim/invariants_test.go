package sim

import (
	"testing"
	"testing/quick"

	"synran/internal/rng"
)

// TestEngineInvariantsFuzz drives the engine manually with arbitrary
// crash plans and forgeries drawn from a seeded stream and checks the
// structural invariants after every round:
//
//   - the fault budget (crashes + corruptions) is never exceeded;
//   - crashed processes never send again;
//   - corrupted processes stay corrupted;
//   - the alive/halted/corrupt sets only shrink/grow monotonically;
//   - Budget() is consistent with the observed fault counts.
func TestEngineInvariantsFuzz(t *testing.T) {
	f := func(nRaw, tRaw uint8, seed uint64) bool {
		n := int(nRaw%10) + 2
		tt := int(tRaw) % (n + 1)
		inputs := make([]int, n)
		procs := mkProcs(n, 3, 6, inputs)
		e, err := NewExecution(Config{N: n, T: tt, MaxRounds: 12}, procs, inputs, seed)
		if err != nil {
			return false
		}
		r := rng.New(seed ^ 0xfa22)

		wasCrashed := make([]bool, n)
		wasCorrupt := make([]bool, n)
		for round := 0; round < 10 && !e.Done(); round++ {
			if _, err := e.StepPhaseA(); err != nil {
				t.Logf("StepPhaseA: %v", err)
				return false
			}
			// Arbitrary plans: random victims, random masks, possibly
			// invalid (out of range, duplicates) — the engine must stay
			// consistent regardless.
			var plans []CrashPlan
			for k := 0; k < r.Intn(4); k++ {
				victim := r.Intn(n+2) - 1
				var mask *BitSet
				if r.Bool() {
					mask = NewBitSet(n)
					for j := 0; j < n; j++ {
						if r.Bool() {
							mask.Set(j)
						}
					}
				}
				plans = append(plans, CrashPlan{Victim: victim, Deliver: mask})
			}
			var forgeries []Forgery
			for k := 0; k < r.Intn(3); k++ {
				sender := r.Intn(n + 1)
				if r.Bool() {
					forgeries = append(forgeries, Forgery{Sender: sender, Silent: true})
				} else {
					per := make([]int64, n)
					for j := range per {
						per[j] = int64(r.Intn(2))
					}
					forgeries = append(forgeries, Forgery{Sender: sender, PerReceiver: per})
				}
			}
			if err := e.FinishRound(RoundPlan{Crashes: plans, Forgeries: forgeries}); err != nil {
				t.Logf("FinishRound: %v", err)
				return false
			}

			// Invariants.
			crashes, corrupts := 0, 0
			for i := 0; i < n; i++ {
				if !e.Alive(i) {
					crashes++
					wasCrashed[i] = true
				} else if wasCrashed[i] {
					t.Logf("process %d revived", i)
					return false
				}
				if e.Corrupt(i) {
					corrupts++
					wasCorrupt[i] = true
				} else if wasCorrupt[i] {
					t.Logf("process %d un-corrupted", i)
					return false
				}
				if !e.Alive(i) && e.Corrupt(i) {
					t.Logf("process %d both crashed and corrupt", i)
					return false
				}
			}
			if crashes+corrupts > tt {
				t.Logf("budget exceeded: %d+%d > %d", crashes, corrupts, tt)
				return false
			}
			if e.Budget() != tt-crashes-corrupts {
				t.Logf("Budget() = %d, want %d", e.Budget(), tt-crashes-corrupts)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestExecutionAccessors(t *testing.T) {
	const n = 4
	inputs := []int{0, 1, 0, 1}
	procs := mkProcs(n, 1, 2, inputs)
	e, err := NewExecution(Config{N: n, T: 2}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.N() != n || e.T() != 2 || e.Round() != 0 {
		t.Fatalf("accessors: N=%d T=%d Round=%d", e.N(), e.T(), e.Round())
	}
	in := e.Inputs()
	in[0] = 9
	if e.Inputs()[0] == 9 {
		t.Fatal("Inputs() exposes internal state")
	}
	if e.Halted(0) {
		t.Fatal("fresh process reported halted")
	}
	if e.Process(2) != procs[2] {
		t.Fatal("Process accessor mismatch")
	}
}
