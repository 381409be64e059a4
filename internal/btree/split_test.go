package btree

import (
	"fmt"
	"sort"
	"testing"
)

func splitTree(n int) *Tree[int] {
	tr := New[int]()
	for i := 0; i < n; i++ {
		tr.Set(fmt.Sprintf("%08d", i), i)
	}
	return tr
}

func TestSplitKeysPartitionsEvenly(t *testing.T) {
	const n = 10000
	tr := splitTree(n)
	for _, parts := range []int{2, 4, 16, 64} {
		seps := tr.SplitKeys(parts)
		if len(seps) == 0 {
			t.Fatalf("parts=%d: no separators", parts)
		}
		if len(seps) > parts-1 {
			t.Fatalf("parts=%d: %d separators, want <= %d", parts, len(seps), parts-1)
		}
		if !sort.StringsAreSorted(seps) {
			t.Fatalf("parts=%d: separators not sorted: %v", parts, seps)
		}
		for i := 1; i < len(seps); i++ {
			if seps[i] == seps[i-1] {
				t.Fatalf("parts=%d: duplicate separator %q", parts, seps[i])
			}
		}
		// Count keys per range and check coverage and rough balance.
		bounds := append(append([]string{""}, seps...), "")
		total := 0
		for i := 0; i+1 < len(bounds); i++ {
			cnt := 0
			tr.AscendRange(bounds[i], bounds[i+1], func(string, int) bool {
				cnt++
				return true
			})
			total += cnt
			// Half-full nodes bound subtree skew; 4x average is generous.
			if avg := n / (len(seps) + 1); cnt > 4*avg {
				t.Fatalf("parts=%d: range %d has %d keys (avg %d)", parts, i, cnt, avg)
			}
		}
		if total != n {
			t.Fatalf("parts=%d: ranges cover %d keys, want %d", parts, total, n)
		}
	}
}

func TestSplitKeysSmallTrees(t *testing.T) {
	if got := New[int]().SplitKeys(4); got != nil {
		t.Fatalf("empty tree: %v", got)
	}
	if got := splitTree(1).SplitKeys(1); got != nil {
		t.Fatalf("parts=1: %v", got)
	}
	// A single-node tree still yields usable separators from leaf keys.
	tr := splitTree(10)
	seps := tr.SplitKeys(4)
	if len(seps) == 0 || len(seps) > 3 {
		t.Fatalf("small tree separators = %v", seps)
	}
	total := 0
	bounds := append(append([]string{""}, seps...), "")
	for i := 0; i+1 < len(bounds); i++ {
		tr.AscendRange(bounds[i], bounds[i+1], func(string, int) bool {
			total++
			return true
		})
	}
	if total != 10 {
		t.Fatalf("coverage = %d", total)
	}
}
