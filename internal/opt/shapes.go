package opt

import (
	"encoding/binary"
	"math"
	"math/bits"

	"relaxedcc/internal/exec"
	"relaxedcc/internal/sqlparser"
	"relaxedcc/internal/sqltypes"
)

// Shapes caches optimized plans by statement shape, so that a statement which
// differs from one planned before in literals only is bound, not optimized.
//
// A text's skeleton (sqlparser.Scan) fixes everything about its parse but the
// values of its number and string tokens. Of those, some never become a
// literal (TOP counts, currency bounds) and some the planner reads while it
// plans (Plan.Pinned: a range end it estimates, an equality it tests against a
// view's predicate): they are the skeleton's pinned slots, and a Template is
// filed under the skeleton and the pinned slots' values. Every other literal
// is free: the planner never looked at it, so the plan, its cost and its shape
// string are the same whatever it holds, and the operator trees read it from
// the execution's parameters. No sampling and no re-validation: a plan that
// would flip with a literal read that literal, which keyed it.
//
// A Shapes is not safe for concurrent use: its owner — the cache's statement
// cache, the back end's query entry point — guards it, and the idle trees of
// its templates, with the lock that guards the rest of its statement state.
type Shapes struct {
	bySkeleton map[string]*shape
	templates  int
}

// maxTemplates bounds the templates a Shapes holds, whatever they are filed
// under; it is emptied when full (shapes in a workload are few; a stream of
// distinct pinned values — range queries, each its own template — costs what
// it did before templates, and keeps no more plans than the statement cache
// did).
const maxTemplates = 512

// shape is what the statements of one skeleton share.
type shape struct {
	slots sqlparser.Slots
	// pinned is the slots whose values a template's key holds. It only
	// grows, and growing it drops the templates filed under the shorter keys.
	pinned    uint64
	templates map[string]*Template
}

// Template is one optimized statement shape: what every statement that has
// its skeleton and agrees with it on the pinned slots runs through.
type Template struct {
	// Plan is the optimized plan with Root cleared: the trees built from it
	// are either idle below or checked out to the one query running them.
	Plan *Plan
	// DML is, in place of Plan, what the back end compiled for an INSERT,
	// UPDATE or DELETE shape. Shapes never looks inside.
	DML any
	// Text is the canonical text (sqlparser.SelectSQL) of the statement the
	// template was made from, cut at its slot literals: another statement's is
	// spliced from it.
	Text sqlparser.Pieces
	// idle holds operator trees ready to run again — for any statement of
	// the shape: a tree reads its free literals from the run's parameters.
	// At most as many as queries ever ran the shape at once.
	idle []exec.Operator
}

// TakeIdle checks an idle tree out of the template, nil when there is none
// or the template is.
func (t *Template) TakeIdle() exec.Operator {
	if t == nil || len(t.idle) == 0 {
		return nil
	}
	last := len(t.idle) - 1
	root := t.idle[last]
	t.idle[last] = nil
	t.idle = t.idle[:last]
	return root
}

// CheckIn hands a tree back after a clean run, for the next statement of the
// shape to run again.
func (t *Template) CheckIn(root exec.Operator) { t.idle = append(t.idle, root) }

// Idle reports how many trees are checked in.
func (t *Template) Idle() int { return len(t.idle) }

// Find returns the template for a text that scanned (sqlparser.Scan) to skel
// and vals, or nil. With a template, vals are turned in place into the
// statement's parameters: what its literal nodes would hold, by slot.
func (s *Shapes) Find(skel []byte, vals []sqltypes.Value) *Template {
	sh := s.bySkeleton[string(skel)]
	if sh == nil {
		return nil
	}
	var buf [64]byte
	key := appendPinned(buf[:0], sh.pinned, vals)
	t := sh.templates[string(key)]
	if t != nil {
		sh.slots.Bind(vals)
	}
	return t
}

// Add files the plan just made for sel, whose text scanned to skel and vals
// (nil for a statement not to be shared), and returns the statement's
// template and parameters. The template is the one already filed when
// another session planned the shape first: same shape, same pinned values,
// same plan. A statement that is not to be shared, or has more literal tokens
// than a pin mask holds, gets a template of its own and nil parameters — its
// trees read its own literals.
func (s *Shapes) Add(skel []byte, vals []sqltypes.Value, sel *sqlparser.SelectStmt, plan *Plan) (*Template, []sqltypes.Value) {
	meta := *plan
	meta.Root = nil
	return s.File(skel, vals, sel.Slots, plan.Pinned, &Template{Plan: &meta, Text: sqlparser.SelectPieces(sel)})
}

// File files t, made for a statement with slots whose text scanned to skel and
// vals, like Add: pinned is the slots its making read, none for the back end's
// DML (Template.DML), whose compile reads no literal's value.
func (s *Shapes) File(skel []byte, vals []sqltypes.Value, slots sqlparser.Slots, pinned uint64, t *Template) (*Template, []sqltypes.Value) {
	if skel == nil || slots.N > 64 || slots.N != len(vals) {
		return t, nil
	}
	// The tokens that are no literal are in every key from the start.
	pinned |= ^slots.Lits & (1<<slots.N - 1)
	sh := s.bySkeleton[string(skel)]
	if sh != nil {
		pinned |= sh.pinned
	}
	key := string(appendPinned(nil, pinned, vals))
	slots.Bind(vals)
	if sh != nil && sh.pinned == pinned {
		if cur := sh.templates[key]; cur != nil {
			return cur, vals
		}
	}
	if s.templates >= maxTemplates || s.bySkeleton == nil {
		s.Reset()
		sh = nil
	}
	if sh == nil {
		sh = &shape{slots: slots, pinned: pinned, templates: map[string]*Template{}}
		s.bySkeleton[string(skel)] = sh
	} else if sh.pinned != pinned {
		s.templates -= len(sh.templates)
		sh.pinned, sh.templates = pinned, map[string]*Template{}
	}
	sh.templates[key] = t
	s.templates++
	return t, vals
}

// Reset drops every shape and template: the catalog, the statistics or the
// views plans were made against changed. The new map is sized for a full
// Shapes, so refilling it after the wholesale eviction does not regrow it.
func (s *Shapes) Reset() { s.bySkeleton, s.templates = make(map[string]*shape, maxTemplates), 0 }

// appendPinned appends the values of the pinned slots, each in a form that
// tells it from every other value of its kind (the skeleton fixes the kinds).
func appendPinned(dst []byte, pinned uint64, vals []sqltypes.Value) []byte {
	for ; pinned != 0; pinned &= pinned - 1 {
		switch v := vals[bits.TrailingZeros64(pinned)]; v.Kind() {
		case sqltypes.KindInt:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Int()))
		case sqltypes.KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
		default:
			dst = append(binary.AppendUvarint(dst, uint64(len(v.Str()))), v.Str()...)
		}
	}
	return dst
}
