// Package bad holds operatorclose regression fixtures. SwitchUnion is the
// PR 1 bug shape: Open opens children that Close never releases.
package bad

// Operator mirrors exec.Operator for the fixture; operatorclose matches the
// interface by name.
type Operator interface {
	Open() error
	Close() error
}

// SwitchUnion opens every child up front but its Close forgets them all —
// the exact leak the real SwitchUnion shipped with before PR 1 fixed it.
type SwitchUnion struct {
	Children []Operator
}

func (s *SwitchUnion) Open() error {
	for i := range s.Children {
		if err := s.Children[i].Open(); err != nil { // want:operatorclose
			return err
		}
	}
	return nil
}

func (s *SwitchUnion) Close() error { return nil }

// CondClose releases its child only under a state flag, so an early-exit
// path (done still false) leaks the opened child.
type CondClose struct {
	Child Operator
	done  bool
}

func (c *CondClose) Open() error { return c.Child.Open() } // want:operatorclose

func (c *CondClose) Close() error {
	if c.done {
		return c.Child.Close()
	}
	return nil
}

// NoClose opens a child but declares no Close method at all.
type NoClose struct { // want:operatorclose
	Child Operator
}

func (n *NoClose) Open() error { return n.Child.Open() }

// VecScan is the vectorized variant of the PR 1 leak: Close releases the
// pooled selection buffer but forgets the opened child operator.
type VecScan struct {
	Child Operator
	sel   []int32
}

func (v *VecScan) Open() error { return v.Child.Open() } // want:operatorclose

func (v *VecScan) Close() error {
	v.sel = nil
	return nil
}
