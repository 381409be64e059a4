package btree

import "sort"

// SplitKeys returns up to parts-1 keys that partition the tree's key space
// into roughly equal-cardinality ranges, for use as half-open range
// boundaries (range i is [splits[i-1], splits[i])). It descends the tree
// level by level, collecting separator keys, until enough boundaries exist
// or the leaves are reached; because B+-tree nodes are at least half full,
// subtree sizes — and therefore the resulting ranges — are balanced within
// a small constant factor. Returns nil when the tree is too small to split.
func (t *Base[S, P]) SplitKeys(parts int) []string {
	if parts <= 1 || t.root == nil {
		return nil
	}
	var seps []string
	level := []*node[S, P]{t.root}
	for len(seps) < parts-1 && !level[0].leaf {
		next := make([]*node[S, P], 0, len(level)*2)
		for _, n := range level {
			seps = append(seps, n.keys...)
			next = append(next, n.children...)
		}
		level = next
	}
	if len(seps) < parts-1 && level[0].leaf {
		// Small tree: fall back to the leaf keys themselves. Leaf keys
		// duplicate the separators above them (a separator is the first key
		// of the leaf to its right), so dedupe after sorting.
		for _, n := range level {
			seps = append(seps, n.keys...)
		}
	}
	sort.Strings(seps)
	seps = dedupeSorted(seps)
	return pickEven(seps, parts-1)
}

func dedupeSorted(keys []string) []string {
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, k)
		}
	}
	return out
}

// pickEven selects up to k evenly spaced keys from the sorted candidates.
func pickEven(sorted []string, k int) []string {
	if k <= 0 || len(sorted) == 0 {
		return nil
	}
	if len(sorted) <= k {
		return append([]string(nil), sorted...)
	}
	out := make([]string, 0, k)
	for i := 1; i <= k; i++ {
		out = append(out, sorted[i*len(sorted)/(k+1)])
	}
	return out
}
