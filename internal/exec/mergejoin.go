package exec

import (
	"relaxedcc/internal/sqltypes"
)

// MergeJoin is a sort-merge equi-join: both inputs must arrive sorted
// ascending on their join keys. Inner joins pair each left row with the
// right rows of its key; semi/anti joins emit left rows with/without a match
// (output schema = left schema). Equal-key groups on the right are buffered
// to support many-to-many matches, and the matches of a left row — that
// group — leave through the shared emitter (join.go).
type MergeJoin struct {
	Left, Right Operator
	// LeftKeys and RightKeys are the key columns' ordinals in the left and
	// right input, pairwise equal; trees of one plan share them read-only.
	LeftKeys, RightKeys []int
	Residual            Compiled // evaluated over concat(left, right); inner joins only
	Kind                JoinKind

	schema *Schema

	// The right input is consumed through the row view (the merge is
	// sequential on key order): the current buffered group, whose key is empty
	// before the first group, and one lookahead row. Keys are read into reused
	// buffers.
	right         rowReader
	out           rowPairs
	rightGroup    sqltypes.Batch
	rightGroupKey sqltypes.Row
	rightNext     sqltypes.Row
	rightNextKey  sqltypes.Row
	rightDone     bool
	curKey        sqltypes.Row // the left row's key
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
	m.right.reset()
	m.rightGroup, m.rightGroupKey = m.rightGroup[:0], m.rightGroupKey[:0]
	m.rightNext, m.rightDone = nil, false
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

// advanceRightRow pulls one row into the lookahead slot.
func (m *MergeJoin) advanceRightRow() error {
	row, ok, err := m.right.next(m.Right)
	if err != nil {
		return err
	}
	if !ok {
		m.rightNext, m.rightDone = nil, true
		return nil
	}
	m.rightNext, m.rightNextKey = row, m.rightNextKey[:0]
	for _, ord := range m.RightKeys {
		m.rightNextKey = append(m.rightNextKey, row[ord])
	}
	return nil
}

// loadRightGroup buffers all right rows equal to the lookahead key.
func (m *MergeJoin) loadRightGroup() error {
	m.rightGroup = m.rightGroup[:0]
	m.rightGroupKey = append(m.rightGroupKey[:0], m.rightNextKey...)
	for m.rightNext != nil && compareKeys(m.rightNextKey, m.rightGroupKey) == 0 {
		m.rightGroup = append(m.rightGroup, m.rightNext)
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
// the keys are equal, appends the buffered group to the emitter's right
// rows. Left rows arrive in key order; a NULL key never matches.
func (m *MergeJoin) matches(r int) error {
	key := m.out.leftKey(m.curKey[:0], r, m.LeftKeys)
	if m.curKey = key; keyHasNull(key) {
		return nil
	}
	for !m.rightDone && (len(m.rightGroupKey) == 0 || compareKeys(m.rightGroupKey, key) < 0) {
		if m.rightNext == nil {
			m.rightDone = true
			break
		}
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
		for _, row := range m.rightGroup {
			m.out.right.Push(row)
		}
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
