// Package good holds lock patterns the repo uses correctly; lockorder must
// report nothing here: nesting in one consistent order, directly and
// through a call, the RWMutex double-check idiom, and a lock released
// before calling out.
package good

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
	l.mu.Lock()
	l.n += a.n
	l.mu.Unlock()
}

func Audit(a *Account, l *Ledger) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n = l.total()
}

func (l *Ledger) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Reconcile copies under Ledger.mu and calls out after releasing it.
func (l *Ledger) Reconcile(a *Account) {
	l.mu.Lock()
	n := l.n
	l.mu.Unlock()
	a.mu.Lock()
	a.n = n
	a.mu.Unlock()
}

// RBox uses the read-then-upgrade double-check idiom from mtcache.
type RBox struct {
	mu sync.RWMutex
	n  int
}

func (b *RBox) Get() int {
	b.mu.RLock()
	n := b.n
	b.mu.RUnlock()
	if n == 0 {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.n = 1
		return b.n
	}
	return n
}
