package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// get reads key's payload through Find.
func get[V any](tr *Tree[V], key string) (val V, ok bool) {
	if leaf, i, ok := tr.Find(key); ok {
		return (*leaf)[i], true
	}
	return val, false
}

// bounds returns the smallest and largest keys, as AscendRange visits them.
func bounds[V any](tr *Tree[V]) (lo, hi string, ok bool) {
	tr.AscendRange("", "", func(k string, _ V) bool {
		if !ok {
			lo, ok = k, true
		}
		hi = k
		return true
	})
	return lo, hi, ok
}

func TestEmptyTree(t *testing.T) {
	tr := New[int]()
	if tr.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", tr.Len())
	}
	if _, ok := get(tr, "x"); ok {
		t.Fatal("Find on empty tree returned ok")
	}
	if tr.Delete("x") {
		t.Fatal("Delete on empty tree returned true")
	}
	if _, _, ok := bounds(tr); ok {
		t.Fatal("AscendRange on empty tree visited an entry")
	}
	called := false
	tr.Ascend(func(string, int) bool { called = true; return true })
	if called {
		t.Fatal("Ascend on empty tree visited an entry")
	}
}

func TestSetGetSingle(t *testing.T) {
	tr := New[int]()
	if !tr.Set("a", 1) {
		t.Fatal("first Set returned false")
	}
	if tr.Set("a", 2) {
		t.Fatal("overwrite Set returned true")
	}
	v, ok := get(tr, "a")
	if !ok || v != 2 {
		t.Fatalf("Find = %v,%v, want 2,true", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestInsertManyAscendSorted(t *testing.T) {
	tr := New[int]()
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		tr.Set(fmt.Sprintf("%08d", i), i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatalf("invariants: %s", msg)
	}
	want := 0
	tr.Ascend(func(k string, v int) bool {
		if v != want {
			t.Fatalf("ascend order: got %d, want %d", v, want)
		}
		want++
		return true
	})
	if want != n {
		t.Fatalf("visited %d entries, want %d", want, n)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 100; i++ {
		tr.Set(fmt.Sprintf("%03d", i), i)
	}
	var got []int
	tr.AscendRange("010", "020", func(k string, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("range [010,020) = %v", got)
	}
	// Early termination.
	count := 0
	tr.AscendRange("000", "", func(string, int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
	// Start beyond the end.
	visited := false
	tr.AscendRange("zzz", "", func(string, int) bool { visited = true; return true })
	if visited {
		t.Fatal("range past max visited entries")
	}
}

func TestAscendRangeStartEqualsSeparator(t *testing.T) {
	// Insert enough sequential keys to force splits, then scan starting at
	// every key; each scan must start exactly at its key.
	tr := New[int]()
	const n = 1000
	for i := 0; i < n; i++ {
		tr.Set(fmt.Sprintf("%05d", i), i)
	}
	for i := 0; i < n; i += 7 {
		start := fmt.Sprintf("%05d", i)
		first := -1
		tr.AscendRange(start, "", func(k string, v int) bool {
			first = v
			return false
		})
		if first != i {
			t.Fatalf("scan from %s started at %d", start, first)
		}
	}
}

func TestAscendPrefix(t *testing.T) {
	tr := New[int]()
	tr.Set("apple", 1)
	tr.Set("app", 2)
	tr.Set("banana", 3)
	tr.Set("applet", 4)
	// A prefix scan is the range [prefix, AppendPrefixEnd(prefix)).
	var keys []string
	tr.AscendRange("app", string(AppendPrefixEnd(nil, []byte("app"))), func(k string, v int) bool {
		keys = append(keys, k)
		return true
	})
	want := []string{"app", "apple", "applet"}
	if len(keys) != len(want) {
		t.Fatalf("prefix scan = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("prefix scan = %v, want %v", keys, want)
		}
	}
}

func TestPrefixEndAllFF(t *testing.T) {
	if got := AppendPrefixEnd(nil, []byte("\xff\xff")); len(got) != 0 {
		t.Fatalf("AppendPrefixEnd(0xffff) = %q, want empty", got)
	}
	if got := AppendPrefixEnd(nil, []byte("a\xff")); string(got) != "b" {
		t.Fatalf("AppendPrefixEnd = %q, want b", got)
	}
}

// A range end is computed once per bounded scan opened, point reads
// included: into a buffer with room, including the key's own (the two may
// alias), it costs nothing.
func TestPrefixEndAllocatesOnlyItsResult(t *testing.T) {
	key := []byte("customer\x00\x00\x00\x00\x00\x00\x00\x11")
	buf := make([]byte, 0, 2*len(key))
	var got []byte
	if n := testing.AllocsPerRun(100, func() {
		got = AppendPrefixEnd(append(buf[:0], key...), buf[:len(key)])[len(key):]
	}); n != 0 {
		t.Fatalf("AppendPrefixEnd allocates %v times, want 0", n)
	}
	if string(got) <= string(key) || len(got) != len(key) {
		t.Fatalf("AppendPrefixEnd(%q) = %q", key, got)
	}
}

func TestDeleteAll(t *testing.T) {
	tr := New[int]()
	const n = 3000
	rng := rand.New(rand.NewSource(7))
	keys := rng.Perm(n)
	for _, i := range keys {
		tr.Set(fmt.Sprintf("%08d", i), i)
	}
	del := rng.Perm(n)
	for step, i := range del {
		if !tr.Delete(fmt.Sprintf("%08d", i)) {
			t.Fatalf("Delete(%d) returned false", i)
		}
		if step%500 == 0 {
			if msg := tr.CheckInvariants(); msg != "" {
				t.Fatalf("after %d deletes: %s", step+1, msg)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after delete-all = %d", tr.Len())
	}
	if msg := tr.CheckInvariants(); msg != "" {
		t.Fatalf("invariants after delete-all: %s", msg)
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 200; i++ {
		tr.Set(fmt.Sprintf("%03d", i), i)
	}
	if tr.Delete("999") {
		t.Fatal("Delete of missing key returned true")
	}
	if tr.Len() != 200 {
		t.Fatalf("Len changed after failed delete: %d", tr.Len())
	}
}

func TestMinMax(t *testing.T) {
	tr := New[string]()
	for _, k := range []string{"m", "c", "z", "a", "q"} {
		tr.Set(k, k)
	}
	if lo, hi, _ := bounds(tr); lo != "a" || hi != "z" {
		t.Fatalf("smallest, largest = %q, %q", lo, hi)
	}
}

// TestQuickAgainstMap property-tests the tree against a reference map under
// random interleaved inserts, overwrites and deletes, then reads random
// ranges back through AppendRange in limited chunks. It runs on both payload
// shapes storage instantiates: a slice (clustered rows) and a string
// (secondary-index entries).
func TestQuickAgainstMap(t *testing.T) {
	t.Run("slice", func(t *testing.T) {
		quickAgainstMap(t, func(rng *rand.Rand) []int { return []int{rng.Int(), rng.Int()} },
			func(a, b []int) bool { return len(a) == 2 && len(b) == 2 && a[0] == b[0] && a[1] == b[1] })
	})
	t.Run("string", func(t *testing.T) {
		quickAgainstMap(t, func(rng *rand.Rand) string { return fmt.Sprint(rng.Int()) },
			func(a, b string) bool { return a == b })
	})
}

func quickAgainstMap[V any](t *testing.T, gen func(*rand.Rand) V, eq func(a, b V) bool) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New[V]()
		ref := map[string]V{}
		for op := 0; op < 2000; op++ {
			k := fmt.Sprintf("%04d", rng.Intn(500))
			switch rng.Intn(3) {
			case 0, 1:
				v := gen(rng)
				tr.Set(k, v)
				ref[k] = v
			case 2:
				gotDel := tr.Delete(k)
				_, had := ref[k]
				if gotDel != had {
					return false
				}
				delete(ref, k)
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		if tr.CheckInvariants() != "" {
			return false
		}
		// Full contents must match, in sorted order.
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		ok := true
		tr.Ascend(func(k string, v V) bool {
			if i >= len(keys) || k != keys[i] || !eq(v, ref[k]) {
				ok = false
				return false
			}
			i++
			return true
		})
		if !ok || i != len(keys) {
			return false
		}
		// Bulk reads: a random range, resumed in chunks of a random limit,
		// returns exactly the reference's entries of that range.
		for q := 0; q < 50; q++ {
			start, end := fmt.Sprintf("%04d", rng.Intn(520)), fmt.Sprintf("%04d", rng.Intn(520))
			if rng.Intn(4) == 0 {
				start = ""
			}
			if rng.Intn(4) == 0 {
				end = ""
			}
			limit := 1 + rng.Intn(150)
			var got []V
			for cursor, more := start, true; more; {
				before := len(got)
				got, cursor, more = tr.AppendRange(got, cursor, end, limit)
				if len(got)-before > limit || (more && len(got)-before != limit) {
					return false
				}
			}
			lo := sort.SearchStrings(keys, start)
			hi := len(keys)
			if end != "" {
				hi = sort.SearchStrings(keys, end)
			}
			if hi < lo {
				hi = lo
			}
			if len(got) != hi-lo {
				return false
			}
			for i, v := range got {
				if !eq(v, ref[keys[lo+i]]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	keys := make([]string, 100000)
	for i := range keys {
		keys[i] = fmt.Sprintf("%08d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New[int]()
		for _, k := range keys {
			tr.Set(k, i)
		}
	}
}

func BenchmarkFind(b *testing.B) {
	tr := New[int]()
	for i := 0; i < 100000; i++ {
		tr.Set(fmt.Sprintf("%08d", i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Find(fmt.Sprintf("%08d", i%100000))
	}
}
