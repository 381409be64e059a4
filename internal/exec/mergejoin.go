package exec

import (
	"relaxedcc/internal/sqltypes"
)

// MergeJoin is a sort-merge equi-join: both inputs must arrive sorted
// ascending on their join keys. Inner joins pair each left row with the
// right rows of its key; semi/anti joins emit left rows with/without a match
// (output schema = left schema). Equal-key groups on the right are copied
// into lanes to support many-to-many matches, and the matches of a left row
// — that group — leave through the shared emitter (join.go).
type MergeJoin struct {
	Left, Right Operator
	// LeftKeys and RightKeys are the key columns' ordinals in the left and
	// right input, pairwise equal; trees of one plan share them read-only.
	LeftKeys, RightKeys []int
	Residual            Compiled // evaluated over concat(left, right); inner joins only
	Kind                JoinKind

	schema *Schema

	// The right input is read a row at a time (the merge is sequential on
	// key order): the lookahead row is active row rk of the right batch rb,
	// which is nil past the last row. The current group is copied into
	// rightGroup, whose key is empty before the first group. Keys are read
	// into reused buffers.
	rb            *sqltypes.ColBatch
	rk            int
	out           rowPairs
	rightGroup    sqltypes.Lanes
	groupView     sqltypes.ColBatch
	rightGroupKey sqltypes.Row
	rightNextKey  sqltypes.Row
	curKey        sqltypes.Row // the left row's key
	one           [1]int32
}

// NewMergeJoin builds a merge join; key lists must be equal length and both
// inputs sorted ascending on them.
func NewMergeJoin(left, right Operator, leftKeys, rightKeys []int, residual Compiled, kind JoinKind) *MergeJoin {
	mj := &MergeJoin{Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys, Residual: residual, Kind: kind}
	if kind == JoinInner {
		mj.schema = Concat(left.Schema(), right.Schema())
	} else {
		mj.schema = left.Schema()
	}
	return mj
}

// Schema implements Operator.
func (m *MergeJoin) Schema() *Schema { return m.schema }

// Open implements Operator.
func (m *MergeJoin) Open(ctx *EvalContext) error {
	m.rightGroup.Reset()
	m.rightGroupKey, m.rb = m.rightGroupKey[:0], nil
	if m.out.find == nil {
		m.out.find = m.matches
	}
	m.out.reset(ctx, m.Residual, m.Kind, len(m.Left.Schema().Cols), len(m.schema.Cols))
	if err := m.Left.Open(ctx); err != nil {
		return err
	}
	if err := m.Right.Open(ctx); err != nil {
		return err
	}
	return m.advanceRightRow()
}

// advanceRightRow moves the lookahead to the next right row and reads its
// key, pulling the next right batch when this one is done.
func (m *MergeJoin) advanceRightRow() error {
	for m.rk++; m.rb == nil || m.rk >= m.rb.NumActive(); m.rk = 0 {
		cb, ok, err := m.Right.NextVec()
		if err != nil {
			return err
		}
		if m.rb = cb; !ok {
			return nil
		}
	}
	i := at(m.rb.Sel, m.rk)
	m.rightNextKey = m.rightNextKey[:0]
	for _, ord := range m.RightKeys {
		m.rightNextKey = append(m.rightNextKey, m.rb.Col(ord).Value(i))
	}
	return nil
}

// loadRightGroup copies all right rows equal to the lookahead key into the
// group.
func (m *MergeJoin) loadRightGroup() error {
	m.rightGroup.Reset()
	m.rightGroupKey = append(m.rightGroupKey[:0], m.rightNextKey...)
	for m.rb != nil && compareKeys(m.rightNextKey, m.rightGroupKey) == 0 {
		m.one[0] = int32(at(m.rb.Sel, m.rk))
		m.rightGroup.AppendAt(m.rb, m.one[:])
		if err := m.advanceRightRow(); err != nil {
			return err
		}
	}
	return nil
}

// NextVec implements Operator.
func (m *MergeJoin) NextVec() (*sqltypes.ColBatch, bool, error) {
	return m.out.next(&m.out, m.Left)
}

// matches advances the right side to the key of active left row r and, when
// the keys are equal, appends the group to the emitter's right rows. Left
// rows arrive in key order; a NULL key never matches.
func (m *MergeJoin) matches(r int) error {
	key := m.out.leftKey(m.curKey[:0], r, m.LeftKeys)
	if m.curKey = key; keyHasNull(key) {
		return nil
	}
	for m.rb != nil && (len(m.rightGroupKey) == 0 || compareKeys(m.rightGroupKey, key) < 0) {
		if compareKeys(m.rightNextKey, key) < 0 {
			if err := m.advanceRightRow(); err != nil {
				return err
			}
			continue
		}
		if err := m.loadRightGroup(); err != nil {
			return err
		}
	}
	if len(m.rightGroupKey) > 0 && compareKeys(m.rightGroupKey, key) == 0 {
		m.groupView.ResetLanes(&m.rightGroup, 0, m.rightGroup.Len())
		m.out.right.AppendAt(&m.groupView, nil)
	}
	return nil
}

// Close implements Operator.
func (m *MergeJoin) Close() error {
	errL := m.Left.Close()
	if errR := m.Right.Close(); errL == nil {
		return errR
	}
	return errL
}

func compareKeys(a, b sqltypes.Row) int {
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func keyHasNull(k sqltypes.Row) bool {
	for _, v := range k {
		if v.IsNull() {
			return true
		}
	}
	return false
}
