package btree

import "slices"

// Tree is a B+-tree mapping string keys to payloads of type V, stored
// unboxed in a slice per leaf (storage instantiates Tree[string] for its
// secondary indexes). The zero value is an empty tree ready for use.
type Tree[V any] struct {
	Base[Slice[V], *Slice[V]]
}

// Slice is the leaf storage of a Tree: a plain slice of payloads.
type Slice[V any] []V

// Len implements Payloads.
func (s *Slice[V]) Len() int { return len(*s) }

// Open implements Payloads.
func (s *Slice[V]) Open(i int) {
	var zero V
	*s = slices.Insert(*s, i, zero)
}

// Remove implements Payloads.
func (s *Slice[V]) Remove(i, j int) { *s = slices.Delete(*s, i, j) }

// Move implements Payloads.
func (s *Slice[V]) Move(at int, src *Slice[V], i, j int) {
	*s = slices.Insert(*s, at, (*src)[i:j]...)
}

// Fresh implements Payloads.
func (s *Slice[V]) Fresh() Slice[V] { return nil }

// New returns an empty tree.
func New[V any]() *Tree[V] { return &Tree[V]{} }

// Set stores val under key, replacing any existing payload.
// It reports whether the key was newly inserted.
func (t *Tree[V]) Set(key string, val V) bool {
	leaf, i, added := t.Insert(key)
	(*leaf)[i] = val
	return added
}

// Ascend calls fn for every entry in ascending key order until fn returns
// false.
func (t *Tree[V]) Ascend(fn func(key string, val V) bool) {
	t.AscendRange("", "", fn)
}

// AscendRange calls fn for entries with start <= key < end in ascending
// order, until fn returns false. An empty start means from the beginning; an
// empty end means to the end.
func (t *Tree[V]) AscendRange(start, end string, fn func(key string, val V) bool) {
	t.Walk(start, end, func(keys []string, leaf *Slice[V], i, j int) bool {
		for ; i < j; i++ {
			if !fn(keys[i], (*leaf)[i]) {
				return false
			}
		}
		return true
	})
}

// AppendRange appends to dst the payloads of up to limit entries with
// start <= key < end, in ascending order, copying whole leaf windows instead
// of visiting entries one at a time. It returns the grown slice, the key at
// which the next call resumes, and whether entries may remain in the range;
// the resume entry itself has not been appended. An empty start means from
// the beginning; an empty end means to the end.
func (t *Tree[V]) AppendRange(dst []V, start, end string, limit int) (out []V, next string, more bool) {
	t.Walk(start, end, func(keys []string, leaf *Slice[V], i, j int) bool {
		if limit < j-i {
			dst, next, more = append(dst, (*leaf)[i:i+limit]...), keys[i+limit], true
			return false
		}
		dst = append(dst, (*leaf)[i:j]...)
		limit -= j - i
		return true
	})
	return dst, next, more
}
