package core

import (
	"testing"
	"time"

	"relaxedcc/internal/fault"
	"relaxedcc/internal/mtcache"
)

// TestBlockOnPlainSystemServesLocally: a blocking session on a system without
// fault injection waits through the coordinator, so the heartbeats and the
// agent run during its waits and the guard passes on a re-check. A wait that
// only moved the clock would leave the region ever staler, exhaust the wait
// budget and send the query remote.
func TestBlockOnPlainSystemServesLocally(t *testing.T) {
	sys := regionSystem(t)
	if err := sys.Run(14 * time.Second); err != nil {
		t.Fatal(err)
	}
	driftPastBound(t, sys, 5*time.Second)
	sess := sys.Cache.NewSession()
	sess.Action = mtcache.ActionBlock
	res, err := sess.Query(guardedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LocalViews) == 0 || res.RemoteQueries != 0 {
		t.Fatalf("served from views %v with %d remote queries, want the local branch only", res.LocalViews, res.RemoteQueries)
	}
	if len(res.Violations) != 1 || res.Violations[0].BlockWaits == 0 || res.Violations[0].Chosen != 0 {
		t.Fatalf("violations = %+v, want one local decision with block waits", res.Violations)
	}
}

// TestBlockWaitsTheEffectiveInterval: a blocked guard re-check waits the
// agent's effective propagation interval, not the catalog's configured one,
// once the agent has been retuned.
func TestBlockWaitsTheEffectiveInterval(t *testing.T) {
	sys := regionSystem(t)
	if err := sys.Run(14 * time.Second); err != nil {
		t.Fatal(err)
	}
	driftPastBound(t, sys, 5*time.Second)
	// A stalled agent never catches up, so the session blocks once and goes
	// remote.
	inj := fault.New(7)
	sys.InjectFaults(inj)
	inj.StallAgent(1, true)
	sys.Cache.Agent(1).SetInterval(3 * time.Second) // configured: 10s
	sess := sys.Cache.NewSession()
	sess.Action, sess.MaxBlockWaits = mtcache.ActionBlock, 1
	before := sys.Clock.Now()
	res, err := sess.Query(guardedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteQueries == 0 || len(res.Violations) != 1 || res.Violations[0].BlockWaits != 1 {
		t.Fatalf("%d remote queries, violations %+v: want the remote branch after one wait", res.RemoteQueries, res.Violations)
	}
	if got := sys.Clock.Now().Sub(before); got != 3*time.Second {
		t.Fatalf("the block wait took %s of simulated time, want the retuned 3s", got)
	}
}
