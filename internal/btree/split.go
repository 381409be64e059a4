package btree

import "slices"

// SplitKeys returns up to parts-1 keys that partition the tree's key space
// into roughly equal-cardinality ranges, for use as half-open range
// boundaries (range i is [splits[i-1], splits[i])). It descends the tree
// level by level, collecting separator keys, until enough boundaries exist
// or the leaves are reached (a small tree's leaf keys, which repeat the
// separators above them, deduplicated); because B+-tree nodes are at least
// half full, subtree sizes — and therefore the resulting ranges — are
// balanced within a small constant factor. The keys are gathered in dst[:0],
// so a caller that keeps dst across calls allocates nothing once it has
// grown. Returns dst[:0] when the tree is too small to split.
func (t *Base[S, P]) SplitKeys(dst []string, parts int) []string {
	seps, k := dst[:0], parts-1
	if k <= 0 || t.root == nil {
		return seps
	}
	for d, leaf := 0, false; len(seps) < k && !leaf; d++ {
		seps, leaf = t.root.appendKeysAt(seps, d)
	}
	slices.Sort(seps)
	if seps = slices.Compact(seps); len(seps) > k {
		// k evenly spaced keys, in place: key i is read at or after slot i.
		for i := 1; i <= k; i++ {
			seps[i-1] = seps[i*len(seps)/(k+1)]
		}
		seps = seps[:k]
	}
	return seps
}

// appendKeysAt appends the keys of the nodes d levels below n, left to
// right, and reports whether those nodes are leaves.
func (n *node[S, P]) appendKeysAt(dst []string, d int) ([]string, bool) {
	if d == 0 {
		return append(dst, n.keys...), n.leaf
	}
	leaf := false
	for _, c := range n.children {
		dst, leaf = c.appendKeysAt(dst, d-1)
	}
	return dst, leaf
}
