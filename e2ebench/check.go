package main

import (
	"fmt"

	"synran/internal/async"
	"synran/internal/sim"
)

// checkLockStep recomputes the paper's properties from a lock-step
// Result's raw per-process fields instead of trusting its summary flags:
// termination (every survivor decided), agreement, validity, and the
// crash budget. It also requires the summary flags to agree.
func checkLockStep(res *sim.Result, n, t int) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if len(res.Decisions) != n || len(res.Decided) != n || len(res.Inputs) != n {
		return fmt.Errorf("result sized %d/%d/%d, want n = %d",
			len(res.Decisions), len(res.Decided), len(res.Inputs), n)
	}
	if res.Crashes < 0 || res.Crashes > t {
		return fmt.Errorf("%d crashes exceed the budget t = %d", res.Crashes, t)
	}
	if res.Survivors != n-res.Crashes {
		return fmt.Errorf("%d survivors after %d crashes of n = %d", res.Survivors, res.Crashes, n)
	}
	decided, value := 0, -1
	agree := true
	for i, ok := range res.Decided {
		if !ok {
			continue
		}
		decided++
		d := res.Decisions[i]
		if d != 0 && d != 1 {
			return fmt.Errorf("process %d decided %d", i, d)
		}
		if value == -1 {
			value = d
		} else if d != value {
			agree = false
		}
	}
	if decided != res.Survivors {
		return fmt.Errorf("termination: %d of %d survivors decided", decided, res.Survivors)
	}
	if !agree || !res.Agreement {
		return fmt.Errorf("agreement violated")
	}
	if same, v := uniform(res.Inputs); same && value != -1 && value != v {
		return fmt.Errorf("validity: all inputs %d, decided %d", v, value)
	}
	if !res.Validity {
		return fmt.Errorf("validity flag false")
	}
	if res.DecideRounds <= 0 || res.DecideRounds > res.HaltRounds {
		return fmt.Errorf("decide round %d, halt round %d", res.DecideRounds, res.HaltRounds)
	}
	return nil
}

// checkAsync recomputes agreement and validity of a terminated async
// execution from its Decisions, and requires every survivor to have
// decided.
func checkAsync(res *async.Result, n, t int) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if len(res.Decisions) != n || len(res.Decided) != n || len(res.Inputs) != n {
		return fmt.Errorf("result sized %d/%d/%d, want n = %d",
			len(res.Decisions), len(res.Decided), len(res.Inputs), n)
	}
	if res.Crashes > t {
		return fmt.Errorf("%d crashes exceed the budget t = %d", res.Crashes, t)
	}
	decided, value := 0, -1
	for i, ok := range res.Decided {
		if !ok {
			continue
		}
		decided++
		d := res.Decisions[i]
		if d != 0 && d != 1 {
			return fmt.Errorf("process %d decided %d", i, d)
		}
		if value == -1 {
			value = d
		} else if d != value {
			return fmt.Errorf("agreement violated")
		}
	}
	if decided != res.Survivors {
		return fmt.Errorf("termination: %d of %d survivors decided", decided, res.Survivors)
	}
	if same, v := uniform(res.Inputs); same && value != v {
		return fmt.Errorf("validity: all inputs %d, decided %d", v, value)
	}
	if !res.Agreement || !res.Validity {
		return fmt.Errorf("summary flags disagree with the decisions")
	}
	return nil
}

func uniform(xs []int) (bool, int) {
	if len(xs) == 0 {
		return false, 0
	}
	for _, x := range xs[1:] {
		if x != xs[0] {
			return false, 0
		}
	}
	return true, xs[0]
}
