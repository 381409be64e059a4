// Package btree implements an in-memory B+-tree keyed by order-preserving
// byte-string keys (see sqltypes.Key).
//
// The tree keeps one payload per key in its leaves; leaves are linked for
// fast range scans. It backs both clustered and secondary indexes in
// internal/storage. The implementation is a textbook B+-tree with node
// splitting on the way down and rebalancing (borrow/merge) on delete.
//
// How a leaf stores its payloads is a type parameter (Payloads): Tree[V]
// keeps them in a slice, which is what secondary indexes use, and a
// clustered table keeps its rows in typed column lanes (Base over
// sqltypes.Lanes), so a scan filters a leaf where it lies. Base addresses a
// payload by its leaf and position; the caller reads and writes it there.
//
// The tree is not safe for concurrent mutation; callers synchronize (tables
// hold an RWMutex).
package btree

import (
	"slices"
	"sort"
)

// degree is the maximum number of children of an interior node. Leaves hold
// up to degree-1 entries unless the tree was made with a larger leaf
// capacity (NewOf).
const degree = 64

// Payloads is the storage a leaf keeps its payloads in, index-aligned with
// its keys. P is the pointer to the storage type S.
type Payloads[S any] interface {
	*S
	// Len returns the number of payloads.
	Len() int
	// Open inserts a zero payload at i.
	Open(i int)
	// Remove deletes payloads [i, j).
	Remove(i, j int)
	// Move inserts src's payloads [i, j) at at, leaving src as it was.
	Move(at int, src *S, i, j int)
	// Fresh returns empty storage of the same shape.
	Fresh() S
}

// Base is a B+-tree whose leaves keep their payloads in an S. The zero value
// is an empty tree whose leaves start from the zero S; NewOf gives them
// another shape.
type Base[S any, P Payloads[S]] struct {
	root    *node[S, P]
	length  int
	proto   S
	leafCap int // entries per leaf; degree-1 when zero
	// last is the rightmost leaf, or nil: a key past its last key goes at
	// its end without a descent (Insert). A split leaves it with a right
	// sibling, and every Delete drops it, because a merge can orphan it.
	last *node[S, P]
}

type node[S any, P Payloads[S]] struct {
	// The fields a descent reads come first, in one cache line.
	leaf     bool
	capacity int // the most keys the node holds; it keeps at least half
	// keys holds the entry keys in a leaf, or the separator keys in an
	// interior node (len(children) == len(keys)+1).
	keys     []string
	children []*node[S, P] // interior only
	vals     S             // leaf only
	next     *node[S, P]   // leaf only: right sibling
}

func (n *node[S, P]) payloads() P { return P(&n.vals) }

// NewOf returns an empty tree whose leaves hold up to leafCap entries (at
// least degree-1) and store their payloads in storage shaped like proto
// (proto.Fresh()). A scan visits a leaf at a time, so wide leaves amortize
// what each visit costs.
func NewOf[S any, P Payloads[S]](proto S, leafCap int) *Base[S, P] {
	return &Base[S, P]{proto: proto, leafCap: max(leafCap, degree-1)}
}

// Len returns the number of entries.
func (t *Base[S, P]) Len() int { return t.length }

// Find returns the leaf storage and position of key's payload, if present.
func (t *Base[S, P]) Find(key string) (leaf *S, i int, ok bool) {
	n := t.root
	if n == nil {
		return nil, 0, false
	}
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i = sort.SearchStrings(n.keys, key)
	return &n.vals, i, i < len(n.keys) && n.keys[i] == key
}

// Insert makes room for key's payload, if the key is new, and returns where
// the payload lives: the caller writes it there. It reports whether the key
// was newly inserted (its payload is then zero).
//
// A key past the rightmost leaf's last key, in a leaf with room, is appended
// there: a load in key order descends once per leaf, not once per key.
func (t *Base[S, P]) Insert(key string) (leaf *S, i int, added bool) {
	if n := t.last; n != nil && n.next == nil && !n.full() && key > n.keys[len(n.keys)-1] {
		n.keys = append(n.keys, key)
		n.payloads().Open(len(n.keys) - 1)
		t.length++
		return &n.vals, len(n.keys) - 1, true
	}
	if t.root == nil {
		t.root = &node[S, P]{leaf: true, vals: P(&t.proto).Fresh(), capacity: max(t.leafCap, degree-1)}
	}
	if t.root.full() {
		old := t.root
		t.root = &node[S, P]{children: []*node[S, P]{old}, capacity: degree - 1}
		t.root.splitChild(0, key)
	}
	var n *node[S, P]
	n, i, added = t.root.insert(key)
	if added {
		t.length++
	}
	if n.next == nil {
		t.last = n
	}
	return &n.vals, i, added
}

func (n *node[S, P]) full() bool { return len(n.keys) >= n.capacity }

// low reports whether the node is at the fewest keys it may keep.
func (n *node[S, P]) low() bool { return len(n.keys) <= n.capacity/2 }

// childIndex returns the child slot to descend into for key.
func childIndex(keys []string, key string) int {
	// Separator keys[i] is the smallest key in children[i+1].
	return sort.Search(len(keys), func(i int) bool { return keys[i] > key })
}

// gallop returns the position of the first key from i on that is not below
// key. It probes i, i+1, i+3, i+7, ... before bisecting the last gap, so a
// range that ends a few keys on costs a compare or two.
func gallop(keys []string, i int, key string) int {
	hi := i
	for step := 1; hi < len(keys) && keys[hi] < key; step *= 2 {
		i, hi = hi+1, hi+step
	}
	return i + sort.SearchStrings(keys[i:min(hi, len(keys))], key)
}

// insert puts key in the leaf below n it belongs in, and returns that leaf,
// the key's position and whether the key is new.
func (n *node[S, P]) insert(key string) (*node[S, P], int, bool) {
	if n.leaf {
		i := sort.SearchStrings(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			return n, i, false
		}
		n.keys = slices.Insert(n.keys, i, key)
		n.payloads().Open(i)
		return n, i, true
	}
	i := childIndex(n.keys, key)
	if n.children[i].full() {
		n.splitChild(i, key)
		if key >= n.keys[i] {
			i++
		}
	}
	return n.children[i].insert(key)
}

// splitChild splits the full child at index i, promoting a separator, to
// make room for key. A leaf splits in half — except the last leaf when key
// goes past its end: it stays full and key starts the new leaf, so a table
// loaded in key order fills its leaves.
func (n *node[S, P]) splitChild(i int, key string) {
	child := n.children[i]
	mid := len(child.keys) / 2
	var sep string
	right := &node[S, P]{leaf: child.leaf, capacity: child.capacity}
	if child.leaf {
		if sep = key; child.next != nil || key <= child.keys[len(child.keys)-1] {
			sep = child.keys[mid]
		} else {
			mid = len(child.keys)
		}
		right.keys = append(right.keys, child.keys[mid:]...)
		right.vals = child.payloads().Fresh()
		right.payloads().Move(0, &child.vals, mid, len(child.keys))
		child.payloads().Remove(mid, len(child.keys))
		child.keys = child.keys[:mid:mid]
		right.next = child.next
		child.next = right
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
func (t *Base[S, P]) Delete(key string) bool {
	t.last = nil
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

func (n *node[S, P]) delete(key string) bool {
	if n.leaf {
		i := sort.SearchStrings(n.keys, key)
		if i >= len(n.keys) || n.keys[i] != key {
			return false
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.payloads().Remove(i, i+1)
		return true
	}
	i := childIndex(n.keys, key)
	child := n.children[i]
	if child.low() {
		n.rebalance(i)
		i = childIndex(n.keys, key)
		child = n.children[i]
	}
	return child.delete(key)
}

// rebalance ensures children[i] has more than half its capacity by
// borrowing from a sibling or merging with one.
func (n *node[S, P]) rebalance(i int) {
	child := n.children[i]
	if i > 0 && !n.children[i-1].low() {
		left := n.children[i-1]
		if child.leaf {
			k := len(left.keys) - 1
			child.keys = append([]string{left.keys[k]}, child.keys...)
			child.payloads().Move(0, &left.vals, k, k+1)
			left.keys = left.keys[:k]
			left.payloads().Remove(k, k+1)
			n.keys[i-1] = child.keys[0]
		} else {
			k := len(left.keys) - 1
			child.keys = append([]string{n.keys[i-1]}, child.keys...)
			child.children = append([]*node[S, P]{left.children[k+1]}, child.children...)
			n.keys[i-1] = left.keys[k]
			left.keys = left.keys[:k]
			left.children = left.children[:k+1]
		}
		return
	}
	if i < len(n.children)-1 && !n.children[i+1].low() {
		right := n.children[i+1]
		if child.leaf {
			child.payloads().Move(len(child.keys), &right.vals, 0, 1)
			child.keys = append(child.keys, right.keys[0])
			right.keys = right.keys[1:]
			right.payloads().Remove(0, 1)
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
		child.payloads().Move(len(child.keys), &right.vals, 0, len(right.keys))
		child.keys = append(child.keys, right.keys...)
		child.next = right.next
	} else {
		child.keys = append(child.keys, n.keys[i])
		child.keys = append(child.keys, right.keys...)
		child.children = append(child.children, right.children...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// Walk hands fn the entries with start <= key < end in ascending order, a
// leaf at a time: the leaf's keys and payloads and the window [i, j) of them
// in range, never empty. fn returns false to stop. An empty start means from
// the beginning; an empty end means to the end. Walk keeps neither bound, so
// a caller that encodes them on the stack walks without allocating.
func (t *Base[S, P]) Walk(start, end string, fn func(keys []string, leaf *S, i, j int) bool) {
	n := t.root
	if n == nil {
		return
	}
	for !n.leaf {
		n = n.children[childIndex(n.keys, start)]
	}
	// The descent can land one leaf early when start equals a separator;
	// the first window is then empty and the walk moves on.
	for i := sort.SearchStrings(n.keys, start); n != nil; n, i = n.next, 0 {
		j := len(n.keys)
		if end != "" && j > 0 && n.keys[j-1] >= end {
			j = gallop(n.keys, i, end)
		}
		if i < j && !fn(n.keys, &n.vals, i, j) {
			return
		}
		if j < len(n.keys) {
			return // end bound fell inside this leaf
		}
	}
}
