package exec

import (
	"relaxedcc/internal/sqltypes"
)

// MergeJoin is a sort-merge equi-join: both inputs must arrive sorted
// ascending on their join keys. Inner joins concatenate matching rows;
// semi/anti joins emit left rows with/without a match (output schema =
// left schema). Equal-key groups on the right are buffered to support
// many-to-many matches.
type MergeJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []Compiled
	Residual            Compiled // evaluated over concat(left, right); inner joins only
	Kind                JoinKind

	schema *Schema
	ctx    *EvalContext

	// Both inputs are consumed through the row view (the merge is sequential
	// on key order) and joined rows leave in row-backed batches.
	left, right rowReader
	out         rowBuilder

	// right-side state: the current buffered group and one lookahead row.
	rightGroup    []sqltypes.Row
	rightGroupKey sqltypes.Row
	rightNext     sqltypes.Row
	rightNextKey  sqltypes.Row
	rightDone     bool

	// left-side state.
	cur      sqltypes.Row
	curKey   sqltypes.Row
	mi       int  // index into rightGroup while emitting inner matches
	emitting bool // the current left row matches rightGroup
}

// NewMergeJoin builds a merge join; key lists must be equal length and both
// inputs sorted ascending on them.
func NewMergeJoin(left, right Operator, leftKeys, rightKeys []Compiled, residual Compiled, kind JoinKind) *MergeJoin {
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
	m.ctx = ctx
	m.left.reset()
	m.right.reset()
	m.rightGroup, m.rightGroupKey = nil, nil
	m.rightNext, m.rightNextKey = nil, nil
	m.rightDone = false
	m.cur, m.curKey = nil, nil
	m.mi, m.emitting = 0, false
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
		m.rightNext, m.rightNextKey = nil, nil
		m.rightDone = true
		return nil
	}
	key, err := evalKeyVals(m.RightKeys, m.ctx, row)
	if err != nil {
		return err
	}
	m.rightNext, m.rightNextKey = row, key
	return nil
}

// loadRightGroup buffers all right rows equal to the lookahead key.
func (m *MergeJoin) loadRightGroup() error {
	m.rightGroup = m.rightGroup[:0]
	m.rightGroupKey = m.rightNextKey
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
	return m.out.fill(m, m.ctx, len(m.schema.Cols))
}

// nextRow advances the merge to its next output row.
func (m *MergeJoin) nextRow() (sqltypes.Row, bool, error) {
	for {
		// Emit buffered inner matches for the current left row.
		for m.Kind == JoinInner && m.emitting && m.mi < len(m.rightGroup) {
			r := m.rightGroup[m.mi]
			m.mi++
			out := concatRows(m.cur, r)
			ok, err := residualTrue(m.Residual, m.ctx, out)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return out, true, nil
			}
		}
		// Advance the left side.
		row, ok, err := m.left.next(m.Left)
		if err != nil || !ok {
			return nil, false, err
		}
		key, err := evalKeyVals(m.LeftKeys, m.ctx, row)
		if err != nil {
			return nil, false, err
		}
		m.cur, m.curKey = row, key
		m.emitting = false // armed below only if the keys match
		if keyHasNull(key) {
			if m.Kind == JoinAnti {
				return row, true, nil // NULL keys never match
			}
			continue
		}
		// Advance the right side until its group key >= left key.
		for !m.rightDone && (m.rightGroupKey == nil || compareKeys(m.rightGroupKey, key) < 0) {
			if m.rightNext == nil {
				m.rightDone = true
				break
			}
			if compareKeys(m.rightNextKey, key) < 0 {
				if err := m.advanceRightRow(); err != nil {
					return nil, false, err
				}
				continue
			}
			if err := m.loadRightGroup(); err != nil {
				return nil, false, err
			}
		}
		matched := m.rightGroupKey != nil && compareKeys(m.rightGroupKey, key) == 0
		switch m.Kind {
		case JoinInner:
			if matched {
				m.mi, m.emitting = 0, true
				continue // emit from the buffered group at loop top
			}
		case JoinSemi:
			if matched && m.semiMatch(row) {
				return row, true, nil
			}
		case JoinAnti:
			if !matched || !m.semiMatch(row) {
				return row, true, nil
			}
		}
	}
}

func (m *MergeJoin) semiMatch(left sqltypes.Row) bool {
	if m.Residual == nil {
		return len(m.rightGroup) > 0
	}
	for _, r := range m.rightGroup {
		ok, err := PredicateTrue(m.Residual, m.ctx, concatRows(left, r))
		if err == nil && ok {
			return true
		}
	}
	return false
}

// Close implements Operator.
func (m *MergeJoin) Close() error {
	m.out.release()
	errL := m.Left.Close()
	if errR := m.Right.Close(); errL == nil {
		return errR
	}
	return errL
}

// evalKeyVals evaluates join keys to a value tuple (not an encoded string,
// so ordering comparisons are cheap).
func evalKeyVals(keys []Compiled, ctx *EvalContext, row sqltypes.Row) (sqltypes.Row, error) {
	out := make(sqltypes.Row, len(keys))
	for i, k := range keys {
		v, err := k(ctx, row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
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
