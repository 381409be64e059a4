// Package ignoreall exercises //rcclint:ignore across every analyzer in
// the suite: each analyzer has exactly one finding here, suppressed by a
// directive naming it. It also pins the interaction rules — a directive
// only silences its own analyzer (the same line can keep another
// analyzer's finding alive), and malformed directives are findings.
package ignoreall

import (
	"sync"
	"time"
)

type account struct {
	mu sync.Mutex
	n  int
}

type ledger struct {
	mu sync.Mutex
	n  int
}

func transfer(a *account, l *ledger) {
	a.mu.Lock()
	defer a.mu.Unlock()
	//rcclint:ignore lockorder audit runs only while transfers are stopped
	l.mu.Lock()
	l.n += a.n
	l.mu.Unlock()
}

func audit(a *account, l *ledger) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a.mu.Lock()
	a.n = l.n
	a.mu.Unlock()
}

type Registry struct{}

func (r *Registry) Counter(name string) *int { return new(int) }

// register pins directive isolation on its last line: the wallclock
// directive silences the time.Now, but the metricnames finding on the same
// line (a name that is not a constant) survives.
func register(r *Registry) {
	r.Counter("queries_total")
	//rcclint:ignore metricnames legacy dashboard name kept for continuity
	r.Counter("LegacyCamel")
	//rcclint:ignore wallclock wall timestamp is part of the exported snapshot
	r.Counter(time.Now().Format("stamp_2006_total")) // want:metricnames
}

func misdirected() {
	//rcclint:ignore nosuchpass this analyzer does not exist
	println("x")
}

func reasonless() {
	//rcclint:ignore wallclock
	println("y")
}
