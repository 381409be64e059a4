// Package bad holds a lock-order inversion inside one package, by direct
// nesting: Transfer takes Ledger.mu while holding Account.mu, Audit takes
// them the other way round.
package bad

import "sync"

type Account struct {
	mu sync.Mutex
	n  int
}

type Ledger struct {
	mu sync.Mutex
	n  int
}

func Transfer(a *Account, l *Ledger) {
	a.mu.Lock()
	defer a.mu.Unlock()
	l.mu.Lock() // want:lockorder
	l.n += a.n
	l.mu.Unlock()
}

func Audit(a *Account, l *Ledger) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a.mu.Lock()
	a.n = l.n
	a.mu.Unlock()
}
