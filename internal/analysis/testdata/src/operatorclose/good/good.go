// Package good holds operator shapes that close correctly; operatorclose
// must report nothing here.
package good

type Operator interface {
	Open() error
	Close() error
}

// Filter opens its one child and closes it.
type Filter struct {
	Child Operator
}

func (f *Filter) Open() error { return f.Child.Open() }

func (f *Filter) Close() error { return f.Child.Close() }

// Union hands each opened child to a tracking method on the same receiver,
// and Close drains the tracked set.
type Union struct {
	Children []Operator
	active   Operator
	opened   []Operator
}

func (u *Union) track(op Operator) { u.opened = append(u.opened, op) }

func (u *Union) Open() error {
	u.active = u.Children[0]
	if err := u.active.Open(); err != nil {
		return err
	}
	u.track(u.active)
	return nil
}

func (u *Union) Close() error {
	var first error
	for _, op := range u.opened {
		if err := op.Close(); err != nil && first == nil {
			first = err
		}
	}
	u.opened = u.opened[:0]
	return nil
}

// Guarded closes under a nil-guard of the field itself, which is not a
// foreign condition.
type Guarded struct {
	Child Operator
}

func (g *Guarded) Open() error { return g.Child.Open() }

func (g *Guarded) Close() error {
	if g.Child != nil {
		return g.Child.Close()
	}
	return nil
}

// VecJoin is the vectorized hash-join shape: Close releases the pooled
// match-pair arena on its default path and still propagates Close to both
// children.
type VecJoin struct {
	Left  Operator
	Right Operator
	pairs []int32
}

func (j *VecJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	return j.Right.Open()
}

func (j *VecJoin) Close() error {
	j.pairs = nil // release the gather arena with the children
	if err := j.Left.Close(); err != nil {
		return err
	}
	return j.Right.Close()
}
