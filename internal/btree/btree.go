// Package btree implements an in-memory B+-tree keyed by order-preserving
// byte-string keys (see sqltypes.Key).
//
// The tree stores one payload per key in its leaves; leaves are linked for
// fast range scans. It backs both clustered and secondary indexes in
// internal/storage. The implementation is a textbook B+-tree with node
// splitting on the way down and rebalancing (borrow/merge) on delete.
//
// The tree is not safe for concurrent mutation; callers synchronize (tables
// hold an RWMutex).
package btree

import "sort"

// degree is the maximum number of children of an interior node. Leaves hold
// up to degree-1 entries.
const degree = 64

// Tree is a B+-tree mapping string keys to payloads of type V, stored
// unboxed in the leaves (storage instantiates Tree[sqltypes.Row] for
// clustered indexes and Tree[string] for secondary ones).
// The zero value is an empty tree ready for use.
type Tree[V any] struct {
	root   *node[V]
	length int
}

type node[V any] struct {
	// keys holds the entry keys in a leaf, or the separator keys in an
	// interior node (len(children) == len(keys)+1).
	keys     []string
	vals     []V        // leaf only
	children []*node[V] // interior only
	next     *node[V]   // leaf only: right sibling
	leaf     bool
}

// New returns an empty tree.
func New[V any]() *Tree[V] { return &Tree[V]{} }

// Len returns the number of entries.
func (t *Tree[V]) Len() int { return t.length }

// Get returns the payload stored under key, if any.
func (t *Tree[V]) Get(key string) (val V, ok bool) {
	n := t.root
	if n == nil {
		return val, false
	}
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i := sort.SearchStrings(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], true
	}
	return val, false
}

// Set stores val under key, replacing any existing payload.
// It reports whether the key was newly inserted.
func (t *Tree[V]) Set(key string, val V) bool {
	if t.root == nil {
		t.root = &node[V]{leaf: true}
	}
	if t.root.full() {
		old := t.root
		t.root = &node[V]{children: []*node[V]{old}}
		t.root.splitChild(0)
	}
	inserted := t.root.insert(key, val)
	if inserted {
		t.length++
	}
	return inserted
}

func (n *node[V]) full() bool { return len(n.keys) >= degree-1 }

// childIndex returns the child slot to descend into for key.
func childIndex(keys []string, key string) int {
	// Separator keys[i] is the smallest key in children[i+1].
	return sort.Search(len(keys), func(i int) bool { return keys[i] > key })
}

func (n *node[V]) insert(key string, val V) bool {
	if n.leaf {
		i := sort.SearchStrings(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.vals[i] = val
			return false
		}
		n.keys = append(n.keys, "")
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, val)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		return true
	}
	i := childIndex(n.keys, key)
	if n.children[i].full() {
		n.splitChild(i)
		if key >= n.keys[i] {
			i++
		}
	}
	return n.children[i].insert(key, val)
}

// splitChild splits the full child at index i, promoting a separator.
func (n *node[V]) splitChild(i int) {
	child := n.children[i]
	mid := len(child.keys) / 2
	var sep string
	right := &node[V]{leaf: child.leaf}
	if child.leaf {
		right.keys = append(right.keys, child.keys[mid:]...)
		right.vals = append(right.vals, child.vals[mid:]...)
		child.keys = child.keys[:mid:mid]
		child.vals = child.vals[:mid:mid]
		right.next = child.next
		child.next = right
		sep = right.keys[0]
	} else {
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.keys = child.keys[:mid:mid]
		child.children = child.children[: mid+1 : mid+1]
	}
	n.keys = append(n.keys, "")
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

// Delete removes key from the tree, reporting whether it was present.
func (t *Tree[V]) Delete(key string) bool {
	if t.root == nil {
		return false
	}
	deleted := t.root.delete(key)
	if deleted {
		t.length--
	}
	if !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if t.length == 0 {
		t.root = nil
	}
	return deleted
}

const minKeys = (degree - 1) / 2

func (n *node[V]) delete(key string) bool {
	if n.leaf {
		i := sort.SearchStrings(n.keys, key)
		if i >= len(n.keys) || n.keys[i] != key {
			return false
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		return true
	}
	i := childIndex(n.keys, key)
	child := n.children[i]
	if len(child.keys) <= minKeys {
		n.rebalance(i)
		i = childIndex(n.keys, key)
		child = n.children[i]
	}
	return child.delete(key)
}

// rebalance ensures children[i] has more than minKeys entries by borrowing
// from a sibling or merging with one.
func (n *node[V]) rebalance(i int) {
	child := n.children[i]
	if i > 0 && len(n.children[i-1].keys) > minKeys {
		left := n.children[i-1]
		if child.leaf {
			k := len(left.keys) - 1
			child.keys = append([]string{left.keys[k]}, child.keys...)
			child.vals = append([]V{left.vals[k]}, child.vals...)
			left.keys = left.keys[:k]
			left.vals = left.vals[:k]
			n.keys[i-1] = child.keys[0]
		} else {
			k := len(left.keys) - 1
			child.keys = append([]string{n.keys[i-1]}, child.keys...)
			child.children = append([]*node[V]{left.children[k+1]}, child.children...)
			n.keys[i-1] = left.keys[k]
			left.keys = left.keys[:k]
			left.children = left.children[:k+1]
		}
		return
	}
	if i < len(n.children)-1 && len(n.children[i+1].keys) > minKeys {
		right := n.children[i+1]
		if child.leaf {
			child.keys = append(child.keys, right.keys[0])
			child.vals = append(child.vals, right.vals[0])
			right.keys = right.keys[1:]
			right.vals = right.vals[1:]
			n.keys[i] = right.keys[0]
		} else {
			child.keys = append(child.keys, n.keys[i])
			child.children = append(child.children, right.children[0])
			n.keys[i] = right.keys[0]
			right.keys = right.keys[1:]
			right.children = right.children[1:]
		}
		return
	}
	// Merge child with a sibling.
	if i == len(n.children)-1 {
		i--
		child = n.children[i]
	}
	right := n.children[i+1]
	if child.leaf {
		child.keys = append(child.keys, right.keys...)
		child.vals = append(child.vals, right.vals...)
		child.next = right.next
	} else {
		child.keys = append(child.keys, n.keys[i])
		child.keys = append(child.keys, right.keys...)
		child.children = append(child.children, right.children...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
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
	n := t.root
	if n == nil {
		return
	}
	for !n.leaf {
		n = n.children[childIndex(n.keys, start)]
	}
	// The descent can land one leaf early when start equals a separator;
	// scan forward within the linked leaves.
	i := sort.SearchStrings(n.keys, start)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if end != "" && n.keys[i] >= end {
				return
			}
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// AppendRange appends to dst the payloads of up to limit entries with
// start <= key < end, in ascending order, copying whole leaf windows instead
// of visiting entries one at a time. It returns the grown slice, the key at
// which the next call resumes, and whether entries may remain in the range;
// the resume entry itself has not been appended. An empty start means from
// the beginning; an empty end means to the end. It is the bulk counterpart
// of AscendRange and calls nothing back, so a caller that encodes its bounds
// on the stack walks the tree without allocating.
func (t *Tree[V]) AppendRange(dst []V, start, end string, limit int) (out []V, next string, more bool) {
	n := t.root
	if n == nil {
		return dst, "", false
	}
	for !n.leaf {
		n = n.children[childIndex(n.keys, start)]
	}
	for i := sort.SearchStrings(n.keys, start); n != nil; n, i = n.next, 0 {
		j := len(n.keys)
		if end != "" && j > 0 && n.keys[j-1] >= end {
			j = sort.SearchStrings(n.keys, end)
		}
		if limit < j-i {
			return append(dst, n.vals[i:i+limit]...), n.keys[i+limit], true
		}
		if i < j {
			dst = append(dst, n.vals[i:j]...)
			limit -= j - i
		}
		if j < len(n.keys) {
			break // end bound fell inside this leaf
		}
	}
	return dst, "", false
}

// AscendPrefix calls fn for every entry whose key begins with prefix.
func (t *Tree[V]) AscendPrefix(prefix string, fn func(key string, val V) bool) {
	if prefix == "" {
		t.Ascend(fn)
		return
	}
	t.AscendRange(prefix, prefixEnd(prefix), fn)
}

// PrefixEnd returns the smallest string greater than every string with the
// given prefix, or "" if there is none (all 0xFF). It is exported for range
// construction by callers that build composite index keys.
func PrefixEnd(prefix string) string { return prefixEnd(prefix) }

// prefixEnd returns the smallest string greater than every string with the
// given prefix, or "" if there is none (all 0xFF).
func prefixEnd(prefix string) string {
	var buf [64]byte // a key this short costs one allocation, the result
	return string(AppendPrefixEnd(buf[:0], []byte(prefix)))
}

// AppendPrefixEnd appends PrefixEnd(prefix) to dst, for callers that keep
// their keys in a byte buffer. prefix may alias dst's contents.
func AppendPrefixEnd(dst, prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xFF {
			dst = append(dst, prefix[:i+1]...)
			dst[len(dst)-1]++
			break
		}
	}
	return dst
}

// Min returns the smallest key and its payload.
func (t *Tree[V]) Min() (key string, val V, ok bool) {
	n := t.root
	if n == nil {
		return "", val, false
	}
	for !n.leaf {
		n = n.children[0]
	}
	if len(n.keys) == 0 {
		return "", val, false
	}
	return n.keys[0], n.vals[0], true
}

// Max returns the largest key and its payload.
func (t *Tree[V]) Max() (key string, val V, ok bool) {
	n := t.root
	if n == nil {
		return "", val, false
	}
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) == 0 {
		return "", val, false
	}
	return n.keys[len(n.keys)-1], n.vals[len(n.keys)-1], true
}

// CheckInvariants walks the tree verifying structural invariants; it is used
// by tests (including property-based tests). It returns a non-empty string
// describing the first violation found, or "" if the tree is well-formed.
func (t *Tree[V]) CheckInvariants() string {
	if t.root == nil {
		if t.length != 0 {
			return "nil root with nonzero length"
		}
		return ""
	}
	count, _, _, msg := t.root.check(true)
	if msg != "" {
		return msg
	}
	if count != t.length {
		return "length mismatch"
	}
	// All leaves must be reachable via next-pointers in sorted order.
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	seen := 0
	prev := ""
	first := true
	for ; n != nil; n = n.next {
		for _, k := range n.keys {
			if !first && k <= prev {
				return "leaf chain out of order"
			}
			prev, first = k, false
			seen++
		}
	}
	if seen != t.length {
		return "leaf chain misses entries"
	}
	return ""
}

func (n *node[V]) check(isRoot bool) (count int, min, max string, msg string) {
	if n.leaf {
		if len(n.vals) != len(n.keys) {
			return 0, "", "", "leaf keys/vals length mismatch"
		}
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] >= n.keys[i] {
				return 0, "", "", "leaf keys out of order"
			}
		}
		if len(n.keys) == 0 && !isRoot {
			return 0, "", "", "empty non-root leaf"
		}
		if len(n.keys) == 0 {
			return 0, "", "", ""
		}
		return len(n.keys), n.keys[0], n.keys[len(n.keys)-1], ""
	}
	if len(n.children) != len(n.keys)+1 {
		return 0, "", "", "interior child count mismatch"
	}
	if !isRoot && len(n.keys) < minKeys {
		return 0, "", "", "interior underflow"
	}
	for i, c := range n.children {
		cc, cmin, cmax, cmsg := c.check(false)
		if cmsg != "" {
			return 0, "", "", cmsg
		}
		count += cc
		if i > 0 && cmin < n.keys[i-1] {
			return 0, "", "", "child min below separator"
		}
		if i < len(n.keys) && cmax >= n.keys[i] {
			return 0, "", "", "child max not below separator"
		}
		if i == 0 {
			min = cmin
		}
		if i == len(n.children)-1 {
			max = cmax
		}
	}
	return count, min, max, ""
}
