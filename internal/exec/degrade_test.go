package exec

import (
	"errors"
	"testing"
)

var errLinkDownTest = errors.New("remote: link lost")

// degradeCtx builds an EvalContext in the given mode that classifies
// errLinkDownTest as unavailability and collects violations.
func degradeCtx(mode DegradeMode, got *[]Violation) *EvalContext {
	c := ctx()
	c.Degrade = mode
	c.Unavailable = func(err error) bool { return errors.Is(err, errLinkDownTest) }
	c.OnViolation = func(v Violation) { *got = append(*got, v) }
	return c
}

// TestDegradeServeLocalFallsBack: the guard picks the remote branch, its
// Open reports unavailability, and serve-local mode answers from the local
// branch with a recorded violation and a degraded decision.
func TestDegradeServeLocalFallsBack(t *testing.T) {
	s := testSchema("t")
	local := &closeProbe{Values: NewValues(s, testRows(2))}
	remote := &closeProbe{Values: NewValues(s, nil), failOpen: true}
	remote.openErr = errLinkDownTest
	su := &SwitchUnion{
		Children: []Operator{local, remote},
		Region:   7,
		Selector: func(*EvalContext) (int, error) { return 1, nil },
	}
	var violations []Violation
	var decisions []GuardDecision
	c := degradeCtx(DegradeServeLocal, &violations)
	c.OnGuard = func(d GuardDecision) { decisions = append(decisions, d) }

	if err := su.Open(c); err != nil {
		t.Fatalf("serve-local Open failed: %v", err)
	}
	rows := 0
	for {
		cb, ok, err := su.NextVec()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows += cb.NumActive()
	}
	if rows != 2 {
		t.Errorf("served %d rows, want the local branch's 2", rows)
	}
	d, ok := su.LastDecision()
	if !ok || d.Chosen != 0 || !d.Degraded {
		t.Errorf("decision = %+v, want degraded local", d)
	}
	if len(decisions) != 1 || !decisions[0].Degraded {
		t.Errorf("OnGuard calls = %+v, want exactly one degraded decision", decisions)
	}
	if len(violations) != 1 || violations[0].Action != "serve-local" ||
		violations[0].Region != 7 || !errors.Is(violations[0].Err, errLinkDownTest) {
		t.Errorf("violations = %+v, want one serve-local on region 7", violations)
	}
	if err := su.Close(); err != nil {
		t.Fatal(err)
	}
	if local.closes != 1 || remote.closes != 1 {
		t.Errorf("closes = (%d, %d), want both opened branches closed", local.closes, remote.closes)
	}
}

// TestDegradeServeLocalBothBranchesFail: when the local fall-back also
// fails, the original remote failure is reported.
func TestDegradeServeLocalBothBranchesFail(t *testing.T) {
	s := testSchema("t")
	local := &closeProbe{Values: NewValues(s, nil), failOpen: true}
	remote := &closeProbe{Values: NewValues(s, nil), failOpen: true}
	remote.openErr = errLinkDownTest
	su := &SwitchUnion{
		Children: []Operator{local, remote},
		Selector: func(*EvalContext) (int, error) { return 1, nil },
	}
	var violations []Violation
	err := su.Open(degradeCtx(DegradeServeLocal, &violations))
	if !errors.Is(err, errLinkDownTest) {
		t.Fatalf("error = %v, want the original remote failure", err)
	}
	if err := su.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDegradeFailRecordsViolation: the default mode propagates the failure
// but still records a "fail" violation for observability.
func TestDegradeFailRecordsViolation(t *testing.T) {
	s := testSchema("t")
	remote := &closeProbe{Values: NewValues(s, nil), failOpen: true}
	remote.openErr = errLinkDownTest
	su := &SwitchUnion{
		Children: []Operator{NewValues(s, testRows(1)), remote},
		Selector: func(*EvalContext) (int, error) { return 1, nil },
	}
	var violations []Violation
	err := su.Open(degradeCtx(DegradeFail, &violations))
	if !errors.Is(err, errLinkDownTest) {
		t.Fatalf("error = %v, want the remote failure", err)
	}
	if len(violations) != 1 || violations[0].Action != "fail" {
		t.Errorf("violations = %+v, want one fail record", violations)
	}
}

// TestDegradeIgnoresSQLErrors: an error the classifier does not call
// unavailability (a genuine SQL error) must not degrade.
func TestDegradeIgnoresSQLErrors(t *testing.T) {
	s := testSchema("t")
	sqlErr := errors.New("backend: no such column")
	remote := &closeProbe{Values: NewValues(s, nil), failOpen: true}
	remote.openErr = sqlErr
	su := &SwitchUnion{
		Children: []Operator{NewValues(s, testRows(1)), remote},
		Selector: func(*EvalContext) (int, error) { return 1, nil },
	}
	var violations []Violation
	err := su.Open(degradeCtx(DegradeServeLocal, &violations))
	if !errors.Is(err, sqlErr) {
		t.Fatalf("error = %v, want the SQL error propagated", err)
	}
	if len(violations) != 0 {
		t.Errorf("violations = %+v, want none for a SQL error", violations)
	}
}

// TestDegradeBlockWaitsForGuard: block mode re-evaluates the selector on
// the GuardRetry pacing until it passes, recording the wait count.
func TestDegradeBlockWaitsForGuard(t *testing.T) {
	s := testSchema("t")
	evals := 0
	su := &SwitchUnion{
		Children: []Operator{NewValues(s, testRows(1)), NewValues(s, nil)},
		Selector: func(*EvalContext) (int, error) {
			evals++
			if evals >= 3 { // passes on the third evaluation
				return 0, nil
			}
			return 1, nil
		},
	}
	var violations []Violation
	c := degradeCtx(DegradeBlock, &violations)
	retries := 0
	c.GuardRetry = func(region, attempt int) bool { retries++; return true }

	if err := su.Open(c); err != nil {
		t.Fatal(err)
	}
	d, _ := su.LastDecision()
	if d.Chosen != 0 || d.BlockWaits != 2 {
		t.Errorf("decision = %+v, want local after 2 waits", d)
	}
	if retries != 2 {
		t.Errorf("GuardRetry called %d times, want 2", retries)
	}
	if len(violations) != 1 || violations[0].Action != "block" || violations[0].Waits != 2 {
		t.Errorf("violations = %+v, want one block record with 2 waits", violations)
	}
	if err := su.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDegradeBlockBudgetExhausted: when GuardRetry cuts off before the
// guard passes, the remote branch executes as chosen.
func TestDegradeBlockBudgetExhausted(t *testing.T) {
	s := testSchema("t")
	su := &SwitchUnion{
		Children: []Operator{NewValues(s, testRows(1)), NewValues(s, testRows(5))},
		Selector: func(*EvalContext) (int, error) { return 1, nil },
	}
	var violations []Violation
	c := degradeCtx(DegradeBlock, &violations)
	c.GuardRetry = func(region, attempt int) bool { return attempt <= 2 }

	if err := su.Open(c); err != nil {
		t.Fatal(err)
	}
	d, _ := su.LastDecision()
	if d.Chosen != 1 || d.BlockWaits != 2 {
		t.Errorf("decision = %+v, want remote after exhausting 2 waits", d)
	}
	if err := su.Close(); err != nil {
		t.Fatal(err)
	}
}
