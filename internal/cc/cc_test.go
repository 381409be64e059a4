package cc

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func ids(xs ...int) []InstanceID {
	out := make([]InstanceID, len(xs))
	for i, x := range xs {
		out[i] = InstanceID(x)
	}
	return out
}

func TestDefaultConstraint(t *testing.T) {
	c := Default(ids(2, 1, 3))
	if len(c.Classes) != 1 {
		t.Fatalf("classes = %d", len(c.Classes))
	}
	cl := c.Classes[0]
	if cl.Bound != 0 {
		t.Fatal("default bound must be 0 (completely current)")
	}
	if len(cl.Set) != 3 || cl.Set[0] != 1 {
		t.Fatalf("set = %v", cl.Set)
	}
	if len(Default(nil).Classes) != 0 {
		t.Fatal("empty default")
	}
}

// TestNormalizeMergesOverlaps covers the paper's Q2 example (Figure 2.2):
// "5 min on (S, T)" with T expanded to {B, R} under "10 min on (B, R)"
// yields the single class "5 min (S, B, R)".
func TestNormalizeMergesOverlaps(t *testing.T) {
	// S=1, B=2, R=3. Outer clause: 5 min on (S,B,R) [T expanded];
	// inner clause: 10 min on (B,R).
	c := Normalize([]Requirement{
		{Bound: 5 * time.Minute, Set: ids(1, 2, 3)},
		{Bound: 10 * time.Minute, Set: ids(2, 3)},
	})
	if len(c.Classes) != 1 {
		t.Fatalf("classes = %+v", c.Classes)
	}
	if c.Classes[0].Bound != 5*time.Minute {
		t.Fatalf("bound = %v, want min(5,10)", c.Classes[0].Bound)
	}
	if len(c.Classes[0].Set) != 3 {
		t.Fatalf("set = %v", c.Classes[0].Set)
	}
}

func TestNormalizeTransitiveMerge(t *testing.T) {
	// {1,2} + {2,3} + {3,4} must all merge through shared members.
	c := Normalize([]Requirement{
		{Bound: 10 * time.Second, Set: ids(1, 2)},
		{Bound: 20 * time.Second, Set: ids(2, 3)},
		{Bound: 5 * time.Second, Set: ids(3, 4)},
	})
	if len(c.Classes) != 1 || c.Classes[0].Bound != 5*time.Second || len(c.Classes[0].Set) != 4 {
		t.Fatalf("constraint = %v", c)
	}
}

func TestNormalizeKeepsDisjointClasses(t *testing.T) {
	c := Normalize([]Requirement{
		{Bound: 10 * time.Minute, Set: ids(1)},
		{Bound: 30 * time.Minute, Set: ids(2)},
	})
	if len(c.Classes) != 2 {
		t.Fatalf("classes = %v", c)
	}
	b1, ok1 := c.BoundFor(1)
	b2, ok2 := c.BoundFor(2)
	if !ok1 || !ok2 || b1 != 10*time.Minute || b2 != 30*time.Minute {
		t.Fatalf("bounds = %v %v", b1, b2)
	}
	if _, ok := c.BoundFor(99); ok {
		t.Fatal("unconstrained instance reported a bound")
	}
}

func TestNormalizeDuplicatesAndEmpty(t *testing.T) {
	c := Normalize([]Requirement{
		{Bound: time.Second, Set: ids(1, 1, 2)},
		{Bound: time.Second, Set: nil},
	})
	if len(c.Classes) != 1 || len(c.Classes[0].Set) != 2 {
		t.Fatalf("constraint = %v", c)
	}
	if msg := c.Validate(); msg != "" {
		t.Fatal(msg)
	}
}

func TestNormalizeByColumns(t *testing.T) {
	// Merging a BY-grouped class with an ungrouped one drops the grouping
	// (ungrouped is stricter).
	c := Normalize([]Requirement{
		{Bound: time.Minute, Set: ids(1, 2), By: []string{"R.isbn"}},
		{Bound: time.Minute, Set: ids(2, 3)},
	})
	if len(c.Classes) != 1 || c.Classes[0].By != nil {
		t.Fatalf("constraint = %+v", c.Classes)
	}
	// Merging two grouped classes keeps the common columns.
	c = Normalize([]Requirement{
		{Bound: time.Minute, Set: ids(1, 2), By: []string{"a", "b"}},
		{Bound: time.Minute, Set: ids(2), By: []string{"b", "c"}},
	})
	if len(c.Classes[0].By) != 1 || c.Classes[0].By[0] != "b" {
		t.Fatalf("merged BY = %v", c.Classes[0].By)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	reqs := []Requirement{
		{Bound: 10 * time.Second, Set: ids(1, 2)},
		{Bound: 20 * time.Second, Set: ids(3)},
	}
	c1 := Normalize(reqs)
	c2 := Normalize(c1.Classes)
	if c1.String() != c2.String() {
		t.Fatalf("not idempotent: %v vs %v", c1, c2)
	}
}

// TestQuickNormalize property-tests normalization: result is always disjoint
// and every pair of instances sharing an input class shares an output class
// whose bound is <= every input bound mentioning either instance's class.
func TestQuickNormalize(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nReq := 1 + rng.Intn(6)
		reqs := make([]Requirement, nReq)
		for i := range reqs {
			n := 1 + rng.Intn(4)
			set := make([]InstanceID, n)
			for j := range set {
				set[j] = InstanceID(rng.Intn(8))
			}
			reqs[i] = Requirement{Bound: time.Duration(rng.Intn(100)) * time.Second, Set: set}
		}
		c := Normalize(reqs)
		if c.Validate() != "" {
			return false
		}
		// Same input class => same output class, with bound <= input bound.
		for _, r := range reqs {
			if len(r.Set) == 0 {
				continue
			}
			cl := c.ClassOf(r.Set[0])
			if cl == nil {
				return false
			}
			for _, id := range r.Set {
				if c.ClassOf(id) != cl {
					return false
				}
			}
			if cl.Bound > r.Bound {
				return false
			}
		}
		// Every output bound equals some input bound (min is achieved).
		for _, cl := range c.Classes {
			found := false
			for _, r := range reqs {
				if r.Bound == cl.Bound {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeliverScanAndJoin(t *testing.T) {
	a := DeliverScan(1, 10)
	b := DeliverScan(1, 11)
	c := DeliverScan(2, 12)
	// Same region merges.
	ab := Join(a, b)
	if len(ab.Groups) != 1 || len(ab.Groups[0].Set) != 2 {
		t.Fatalf("same-region join = %v", ab)
	}
	// Different regions stay separate.
	abc := Join(ab, c)
	if len(abc.Groups) != 2 {
		t.Fatalf("cross-region join = %v", abc)
	}
	if abc.Conflicting() {
		t.Fatal("disjoint groups must not conflict")
	}
}

// TestJoinMergesARegionMetAgainAfterTheGroupsMoved joins three leaves, two of
// them in one region: the region's group must take in the third leaf's
// instance although appending the second region's group moved the slice.
func TestJoinMergesARegionMetAgainAfterTheGroupsMoved(t *testing.T) {
	got := Join(Join(DeliverScan(1, 1), DeliverScan(2, 2)), DeliverScan(1, 3)).String()
	want := Delivered{Groups: []Group{{Region: 1, Set: ids(1, 3)}, {Region: 2, Set: ids(2)}}}.String()
	if got != want {
		t.Fatalf("Join = %s, want %s", got, want)
	}
}

// TestConflictingProperty covers the paper's example: joining two projection
// views of the same table T from different regions delivers {<R1,T>,<R2,T>},
// which is conflicting.
func TestConflictingProperty(t *testing.T) {
	v1 := DeliverScan(1, 7) // projection view of T in region 1
	v2 := DeliverScan(2, 7) // another projection view of T in region 2
	j := Join(v1, v2)
	if !j.Conflicting() {
		t.Fatalf("property %v must conflict", j)
	}
	if j.Satisfies(Constraint{}) {
		t.Fatal("conflicting property cannot satisfy anything")
	}
	if !j.Violates(Constraint{}) {
		t.Fatal("conflicting property must violate")
	}
}

func TestSatisfactionRule(t *testing.T) {
	// Required: {1,2} consistent within 10 min.
	c := Normalize([]Requirement{{Bound: 10 * time.Minute, Set: ids(1, 2)}})
	// Delivered: both from region 1 -> satisfies.
	d := Join(DeliverScan(1, 1), DeliverScan(1, 2))
	if !d.Satisfies(c) {
		t.Fatalf("%v should satisfy %v", d, c)
	}
	// Delivered: from different regions -> does not satisfy.
	d2 := Join(DeliverScan(1, 1), DeliverScan(2, 2))
	if d2.Satisfies(c) {
		t.Fatalf("%v should not satisfy %v", d2, c)
	}
	// Relaxed constraint with separate classes: satisfied by either.
	c2 := Normalize([]Requirement{
		{Bound: 10 * time.Minute, Set: ids(1)},
		{Bound: 30 * time.Minute, Set: ids(2)},
	})
	if !d2.Satisfies(c2) {
		t.Fatalf("%v should satisfy %v", d2, c2)
	}
}

func TestViolationRuleOnPartialPlans(t *testing.T) {
	// Required classes {1} and {2} (different snapshots allowed); a
	// delivered group spanning both intersects two required classes ->
	// violation (can never be separated again).
	c := Normalize([]Requirement{
		{Bound: time.Minute, Set: ids(1)},
		{Bound: time.Minute, Set: ids(2)},
	})
	d := Join(DeliverScan(3, 1), DeliverScan(3, 2))
	if !d.Violates(c) {
		t.Fatalf("%v should violate %v", d, c)
	}
	// A partial plan covering only part of one class does NOT violate.
	c2 := Normalize([]Requirement{{Bound: time.Minute, Set: ids(1, 2)}})
	partial := DeliverScan(1, 1)
	if partial.Violates(c2) {
		t.Fatal("partial coverage must not violate")
	}
	// ... but also does not (yet) satisfy.
	if partial.Satisfies(c2) {
		t.Fatal("partial coverage must not satisfy")
	}
}

func TestSwitchUnionProperty(t *testing.T) {
	// Child 1 (local): instances 1,2 from region 1 (consistent).
	// Child 2 (remote): instances 1,2 from master region 0 (consistent).
	local := DeliverScan(1, 1, 2)
	remote := DeliverScan(0, 1, 2)
	su := SwitchUnion(local, remote)
	if len(su.Groups) != 1 || len(su.Groups[0].Set) != 2 {
		t.Fatalf("switchunion = %v", su)
	}
	if su.Groups[0].Region != RegionDynamic {
		t.Fatalf("region should be dynamic, got %d", su.Groups[0].Region)
	}
	// Instances consistent in one child but not the other are not
	// consistent in the result.
	child1 := Join(DeliverScan(1, 1), DeliverScan(1, 2)) // together
	child2 := Join(DeliverScan(0, 1), DeliverScan(2, 2)) // apart
	su2 := SwitchUnion(child1, child2)
	if len(su2.Groups) != 2 {
		t.Fatalf("meet = %v", su2)
	}
	// Region agreement is preserved.
	su3 := SwitchUnion(DeliverScan(1, 5), DeliverScan(1, 5))
	if su3.Groups[0].Region != 1 {
		t.Fatalf("agreeing regions lost: %v", su3)
	}
}

func TestSwitchUnionEmpty(t *testing.T) {
	if got := SwitchUnion(); len(got.Groups) != 0 {
		t.Fatal("empty switchunion")
	}
}

func TestLocalProbability(t *testing.T) {
	d := 5 * time.Second
	f := 100 * time.Second
	cases := []struct {
		b    time.Duration
		want float64
	}{
		{0, 0},
		{5 * time.Second, 0},     // b == d
		{55 * time.Second, 0.5},  // (55-5)/100
		{105 * time.Second, 1},   // b == d+f
		{200 * time.Second, 1},   // beyond
		{4 * time.Second, 0},     // below delay
		{30 * time.Second, 0.25}, // (30-5)/100
	}
	for _, c := range cases {
		if got := LocalProbability(c.b, d, f); !close(got, c.want) {
			t.Errorf("p(b=%v) = %v, want %v", c.b, got, c.want)
		}
	}
	// Continuous propagation: f = 0.
	if LocalProbability(6*time.Second, 5*time.Second, 0) != 1 {
		t.Fatal("continuous, b > d")
	}
	if LocalProbability(5*time.Second, 5*time.Second, 0) != 0 {
		t.Fatal("continuous, b <= d")
	}
}

// TestQuickLocalProbability checks 0 <= p <= 1 and monotonicity in b.
func TestQuickLocalProbability(t *testing.T) {
	check := func(bMs, dMs, fMs uint16) bool {
		b := time.Duration(bMs) * time.Millisecond
		d := time.Duration(dMs) * time.Millisecond
		f := time.Duration(fMs) * time.Millisecond
		p := LocalProbability(b, d, f)
		if p < 0 || p > 1 {
			return false
		}
		p2 := LocalProbability(b+time.Second, d, f)
		return p2 >= p
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStrings(t *testing.T) {
	c := Normalize([]Requirement{{Bound: time.Minute, Set: ids(1, 2), By: []string{"B.isbn"}}})
	if got := c.String(); got != "[1m0s ON {1,2} BY B.isbn]" {
		t.Fatalf("Constraint.String = %q", got)
	}
	if got := (Constraint{}).String(); got != "[unconstrained]" {
		t.Fatalf("empty = %q", got)
	}
	d := Join(DeliverScan(1, 1), DeliverScan(0, 2))
	if got := d.String(); got != "{<R1, {1}>, <R0, {2}>}" {
		t.Fatalf("Delivered.String = %q", got)
	}
	dyn := SwitchUnion(DeliverScan(1, 1), DeliverScan(0, 1))
	if got := dyn.String(); got != "{<dyn, {1}>}" {
		t.Fatalf("dynamic group = %q", got)
	}
}

func close(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return diff < 1e-9
}
