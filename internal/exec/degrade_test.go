package exec

import (
	"errors"
	"testing"
	"time"
)

var (
	errLinkDownTest = errors.New("remote: link lost")
	errSQLTest      = errors.New("backend: no such column")
)

// degradeCase is one SwitchUnion, a local branch of 2 rows over a remote
// branch of 5, opened once in one degraded mode with errLinkDownTest
// classified as unavailability.
type degradeCase struct {
	name string
	mode DegradeMode
	// passAt is the selector evaluation on which the guard first picks the
	// local branch; 0 means it never does.
	passAt int
	// budget is how many block waits GuardRetry grants.
	budget int
	// localErr and remoteErr fail the branches' Open.
	localErr, remoteErr error

	// The one decision Open must deliver, and what Open returns.
	chosen   int
	degraded bool
	waits    int
	err      error
	openErr  error
}

// open runs the case: it opens the SwitchUnion, reads the branch that
// answered (when Open succeeded) and closes it, and returns every decision
// OnGuard received, the rows served, both branches and the GuardRetry calls.
func (dc degradeCase) open(t *testing.T) (ds []GuardDecision, rows int, local, remote *closeProbe, retries int) {
	t.Helper()
	s := testSchema("t")
	local = &closeProbe{Values: NewValues(s, testRows(2)), failOpen: dc.localErr != nil, openErr: dc.localErr}
	remote = &closeProbe{Values: NewValues(s, testRows(5)), failOpen: dc.remoteErr != nil, openErr: dc.remoteErr}
	evals := 0
	su := &SwitchUnion{
		Children: []Operator{local, remote},
		Label:    "guard(t)",
		Region:   7,
		Selector: func(*EvalContext) (int, time.Time, error) {
			if evals++; dc.passAt > 0 && evals >= dc.passAt {
				return 0, time.Time{}, nil
			}
			return 1, time.Time{}, nil
		},
	}
	c := ctx()
	c.Degrade = dc.mode
	c.Unavailable = func(err error) bool { return errors.Is(err, errLinkDownTest) }
	c.OnGuard = func(d GuardDecision) { ds = append(ds, d) }
	c.GuardRetry = func(region, attempt int) bool { retries++; return attempt <= dc.budget }

	err := su.Open(c)
	if !errors.Is(err, dc.openErr) || (err == nil) != (dc.openErr == nil) {
		t.Fatalf("Open = %v, want %v", err, dc.openErr)
	}
	for err == nil {
		cb, ok, nerr := su.NextVec()
		if nerr != nil {
			t.Fatal(nerr)
		}
		if !ok {
			break
		}
		rows += cb.NumActive()
	}
	if err := su.Close(); err != nil {
		t.Fatal(err)
	}
	return ds, rows, local, remote, retries
}

var degradeCases = []degradeCase{
	{name: "fail, local", mode: DegradeFail, passAt: 1},
	{name: "fail, remote", mode: DegradeFail, chosen: 1},
	{name: "fail, remote unavailable", mode: DegradeFail, remoteErr: errLinkDownTest,
		chosen: 1, err: errLinkDownTest, openErr: errLinkDownTest},
	{name: "serve-local, remote unavailable", mode: DegradeServeLocal, remoteErr: errLinkDownTest,
		degraded: true, err: errLinkDownTest},
	{name: "serve-local, both branches fail", mode: DegradeServeLocal, remoteErr: errLinkDownTest, localErr: errors.New("local lost"),
		degraded: true, err: errLinkDownTest, openErr: errLinkDownTest},
	{name: "serve-local, SQL error", mode: DegradeServeLocal, remoteErr: errSQLTest,
		chosen: 1, openErr: errSQLTest},
	{name: "block, guard passes", mode: DegradeBlock, passAt: 3, budget: 4, waits: 2},
	{name: "block, budget runs out", mode: DegradeBlock, budget: 2, chosen: 1, waits: 2},
	{name: "block, budget runs out, remote unavailable", mode: DegradeBlock, budget: 2, remoteErr: errLinkDownTest,
		chosen: 1, waits: 2, err: errLinkDownTest, openErr: errLinkDownTest},
}

// TestEveryModeDeliversOneDecision: in every degraded mode and on every
// outcome, Open delivers exactly one decision, and that decision is the whole
// report: the branch that answered, whether it was a degraded serve, the
// block waits and the link failure that ended the remote branch. Block waits
// followed by a remote failure are one decision, not two records.
func TestEveryModeDeliversOneDecision(t *testing.T) {
	for _, dc := range degradeCases {
		t.Run(dc.name, func(t *testing.T) {
			ds, rows, _, _, _ := dc.open(t)
			if len(ds) != 1 {
				t.Fatalf("OnGuard calls = %+v, want exactly one", ds)
			}
			d := ds[0]
			if d.Label != "guard(t)" || d.Region != 7 || d.Chosen != dc.chosen || d.Degraded != dc.degraded ||
				d.BlockWaits != dc.waits || d.Err != dc.err {
				t.Errorf("decision = %+v, want chosen %d, degraded %v, %d waits, err %v",
					d, dc.chosen, dc.degraded, dc.waits, dc.err)
			}
			if want := []int{2, 5}[dc.chosen]; dc.openErr == nil && rows != want {
				t.Errorf("served %d rows, want branch %d's %d", rows, dc.chosen, want)
			}
		})
	}
}

// degradeCaseNamed returns the case called name.
func degradeCaseNamed(t *testing.T, name string) degradeCase {
	for _, dc := range degradeCases {
		if dc.name == name {
			return dc
		}
	}
	t.Fatalf("no degrade case %q", name)
	return degradeCase{}
}

// TestDegradeServeLocalFallsBack: the guard picks the remote branch, its
// Open reports unavailability, and serve-local mode answers from the local
// branch; Close releases both branches it opened.
func TestDegradeServeLocalFallsBack(t *testing.T) {
	_, _, local, remote, _ := degradeCaseNamed(t, "serve-local, remote unavailable").open(t)
	if local.closes != 1 || remote.closes != 1 {
		t.Errorf("closes = (%d, %d), want both opened branches closed", local.closes, remote.closes)
	}
}

// TestDegradeServeLocalBothBranchesFail: when the local fall-back also
// fails, the original remote failure is reported, and both branches close.
func TestDegradeServeLocalBothBranchesFail(t *testing.T) {
	_, _, local, remote, _ := degradeCaseNamed(t, "serve-local, both branches fail").open(t)
	if local.opens != 1 || local.closes != 1 || remote.closes != 1 {
		t.Errorf("local opened %d and closed %d times, remote closed %d: want 1, 1, 1",
			local.opens, local.closes, remote.closes)
	}
}

// TestDegradeFailRecordsViolation: the default mode propagates the failure
// without touching the local branch.
func TestDegradeFailRecordsViolation(t *testing.T) {
	_, _, local, _, _ := degradeCaseNamed(t, "fail, remote unavailable").open(t)
	if local.opens != 0 {
		t.Errorf("local branch opened %d times, want never", local.opens)
	}
}

// TestDegradeIgnoresSQLErrors: an error the classifier does not call
// unavailability (a genuine SQL error) does not degrade: the local branch is
// never opened and the decision carries no link failure.
func TestDegradeIgnoresSQLErrors(t *testing.T) {
	_, _, local, _, _ := degradeCaseNamed(t, "serve-local, SQL error").open(t)
	if local.opens != 0 {
		t.Errorf("local branch opened %d times for a SQL error, want never", local.opens)
	}
}

// TestDegradeBlockWaitsForGuard: block mode re-evaluates the selector on
// the GuardRetry pacing until it passes, one retry per wait.
func TestDegradeBlockWaitsForGuard(t *testing.T) {
	if _, _, _, _, retries := degradeCaseNamed(t, "block, guard passes").open(t); retries != 2 {
		t.Errorf("GuardRetry called %d times, want 2", retries)
	}
}

// TestDegradeBlockBudgetExhausted: when GuardRetry cuts off before the
// guard passes, the remote branch executes as chosen, after one refused
// retry past the budget.
func TestDegradeBlockBudgetExhausted(t *testing.T) {
	_, _, local, _, retries := degradeCaseNamed(t, "block, budget runs out").open(t)
	if retries != 3 || local.opens != 0 {
		t.Errorf("GuardRetry called %d times and local opened %d: want 3 and never", retries, local.opens)
	}
}
