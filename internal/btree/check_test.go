package btree

// CheckInvariants walks the tree verifying structural invariants; it is used
// by tests (including property-based tests). It returns a non-empty string
// describing the first violation found, or "" if the tree is well-formed.
func (t *Base[S, P]) CheckInvariants() string {
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

func (n *node[S, P]) check(isRoot bool) (count int, min, max string, msg string) {
	if n.leaf {
		if n.payloads().Len() != len(n.keys) {
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
	if !isRoot && len(n.keys) < n.capacity/2 {
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
