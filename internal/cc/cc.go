// Package cc implements the paper's currency-and-consistency constraint
// model (Sections 2, 3.2 and the appendix):
//
//   - Requirement: one (bound, consistency class, grouping columns) triple
//     over query input operands ("instances").
//   - Normalize: the Section 3.2.1 algorithm — union the triples from all
//     currency clauses, expand views to base tables (done by the caller
//     during name resolution), and repeatedly merge overlapping classes
//     taking the minimum bound, until all classes are disjoint.
//   - Constraint: the normalized form, used as the *required consistency
//     property* of a plan.
//   - Delivered: the *delivered consistency property* of a (partial) plan —
//     a set of (region, instance-set) groups — with the paper's conflict,
//     satisfaction and violation rules, and the property algebra for scans,
//     joins and SwitchUnion (Section 3.2.2).
//
// Instances are small integer ids assigned by the optimizer front end, one
// per base-table occurrence in the query; the same table referenced twice
// yields two instances.
package cc

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// InstanceID identifies one base-table occurrence in a query.
type InstanceID int

// RegionDynamic marks a delivered group whose region is decided at run time
// (the output of a SwitchUnion whose branches disagree).
const RegionDynamic = -1

// Requirement is one currency-clause triple after name resolution: the
// instances in Set must be mutually consistent (same database snapshot) and
// no staler than Bound. If By is non-empty, the consistency requirement is
// relaxed to per-group consistency: rows agreeing on the By columns must
// come from one snapshot, but different groups may come from different
// snapshots (Section 2.1, E3/E4).
type Requirement struct {
	Bound time.Duration
	Set   []InstanceID
	By    []string // qualified column names, e.g. "R.isbn"; empty = whole class
}

// Constraint is a normalized C&C constraint: disjoint classes over base-
// table instances. The zero value means "no constraint" (every plan
// satisfies it); note this differs from the *default* constraint a query
// without a currency clause gets, which is the tightest one (see Default).
type Constraint struct {
	Classes []Requirement
}

// Default returns the paper's default for queries without a currency
// clause: all instances mutually consistent and completely current
// (bound 0), which forces the back-end and preserves traditional semantics.
func Default(instances []InstanceID) Constraint {
	if len(instances) == 0 {
		return Constraint{}
	}
	set := append([]InstanceID(nil), instances...)
	slices.Sort(set)
	return Constraint{Classes: []Requirement{{Bound: 0, Set: set}}}
}

// Normalize merges requirements until all classes are disjoint, taking the
// minimum bound when classes merge (if two classes share an instance, all
// their members must come from one snapshot satisfying the tighter bound).
// Grouping columns merge by intersection: the merged class must honor the
// stricter (coarser) grouping, and a class with no grouping (strictest) wins.
func Normalize(reqs []Requirement) Constraint {
	classes := make([]Requirement, 0, len(reqs))
	for _, r := range reqs {
		if len(r.Set) == 0 {
			continue
		}
		cp := Requirement{Bound: r.Bound, Set: dedupIDs(r.Set), By: append([]string(nil), r.By...)}
		classes = append(classes, cp)
	}
	merged := true
	for merged {
		merged = false
	outer:
		for i := 0; i < len(classes); i++ {
			for j := i + 1; j < len(classes); j++ {
				if intersects(classes[i].Set, classes[j].Set) {
					classes[i] = mergeReqs(classes[i], classes[j])
					classes = append(classes[:j], classes[j+1:]...)
					merged = true
					break outer
				}
			}
		}
	}
	sort.Slice(classes, func(i, j int) bool {
		if len(classes[i].Set) == 0 || len(classes[j].Set) == 0 {
			return len(classes[i].Set) > len(classes[j].Set)
		}
		return classes[i].Set[0] < classes[j].Set[0]
	})
	return Constraint{Classes: classes}
}

func mergeReqs(a, b Requirement) Requirement {
	out := Requirement{Bound: a.Bound}
	if b.Bound < a.Bound {
		out.Bound = b.Bound
	}
	out.Set = dedupIDs(append(append([]InstanceID(nil), a.Set...), b.Set...))
	// Grouping columns: empty By is the strictest requirement (one snapshot
	// for the whole class); otherwise the merged class may only keep the
	// grouping columns demanded by both sides.
	if len(a.By) == 0 || len(b.By) == 0 {
		out.By = nil
	} else {
		out.By = intersectStrings(a.By, b.By)
	}
	return out
}

// ClassOf returns the class containing the instance, or nil.
func (c Constraint) ClassOf(id InstanceID) *Requirement {
	for i := range c.Classes {
		if slices.Contains(c.Classes[i].Set, id) {
			return &c.Classes[i]
		}
	}
	return nil
}

// BoundFor returns the currency bound applying to the instance, and whether
// any class covers it. Instances not mentioned by any class are
// unconstrained.
func (c Constraint) BoundFor(id InstanceID) (time.Duration, bool) {
	if cl := c.ClassOf(id); cl != nil {
		return cl.Bound, true
	}
	return 0, false
}

// Instances returns all constrained instance ids, sorted.
func (c Constraint) Instances() []InstanceID {
	var out []InstanceID
	for _, cl := range c.Classes {
		out = append(out, cl.Set...)
	}
	return dedupIDs(out)
}

// String renders the constraint, e.g. "[10m0s ON {1,2}; 30m0s ON {3}]".
func (c Constraint) String() string {
	if len(c.Classes) == 0 {
		return "[unconstrained]"
	}
	parts := make([]string, len(c.Classes))
	for i, cl := range c.Classes {
		s := fmt.Sprintf("%v ON %s", cl.Bound, idSet(cl.Set))
		if len(cl.By) > 0 {
			s += " BY " + strings.Join(cl.By, ",")
		}
		parts[i] = s
	}
	return "[" + strings.Join(parts, "; ") + "]"
}

// Validate checks internal invariants of a normalized constraint (disjoint,
// non-empty classes). It returns "" when valid; tests use it as a property.
func (c Constraint) Validate() string {
	seen := map[InstanceID]bool{}
	for _, cl := range c.Classes {
		if len(cl.Set) == 0 {
			return "empty class"
		}
		for _, id := range cl.Set {
			if seen[id] {
				return fmt.Sprintf("instance %d in two classes", id)
			}
			seen[id] = true
		}
		if cl.Bound < 0 {
			return "negative bound"
		}
	}
	return ""
}

// Group is one tuple of a delivered consistency property: the instances in
// Set are mutually consistent and belong to currency region Region
// (RegionDynamic if the region is only known at run time).
type Group struct {
	Region int
	Set    []InstanceID
}

// Delivered is the delivered consistency property of a (partial) plan.
type Delivered struct {
	Groups []Group
}

// DeliverScan returns the property of a scan leaf: all the base-table
// instances it produces (one for a base table; the view's base instances for
// a materialized-view scan) belong to a single region.
func DeliverScan(region int, ids ...InstanceID) Delivered {
	set := dedupIDs(ids)
	return Delivered{Groups: []Group{{Region: region, Set: set}}}
}

// Join combines the delivered properties of a join's two children: groups
// from the same region merge (they reflect the same snapshot); other groups
// pass through (Section 3.2.2, join operators).
func Join(a, b Delivered) Delivered {
	out := Delivered{}
	// The index of each region's group: a pointer into out.Groups would go
	// stale when a later append moves the slice.
	byRegion := map[int]int{}
	add := func(g Group) {
		if g.Region != RegionDynamic {
			if i, ok := byRegion[g.Region]; ok {
				out.Groups[i].Set = dedupIDs(append(out.Groups[i].Set, g.Set...))
				return
			}
			byRegion[g.Region] = len(out.Groups)
		}
		out.Groups = append(out.Groups, Group{Region: g.Region, Set: append([]InstanceID(nil), g.Set...)})
	}
	for _, g := range a.Groups {
		add(g)
	}
	for _, g := range b.Groups {
		add(g)
	}
	sortGroups(out.Groups)
	return out
}

// SwitchUnion combines the delivered properties of a SwitchUnion's children:
// two instances can only be guaranteed mutually consistent if they are
// consistent in every child, because any child may be chosen at run time.
// The result is the meet (common refinement) of the children's groupings; a
// resulting group keeps a concrete region only if all children agree on it.
func SwitchUnion(children ...Delivered) Delivered {
	if len(children) == 0 {
		return Delivered{}
	}
	// Instances present in every child.
	counts := map[InstanceID]int{}
	for _, ch := range children {
		for _, id := range instancesOf(ch) {
			counts[id]++
		}
	}
	var common []InstanceID
	for id, n := range counts {
		if n == len(children) {
			common = append(common, id)
		}
	}
	slices.Sort(common)
	// Signature of an instance: the sequence of (group index, region) per
	// child. Two instances share an output group iff signatures match on
	// group indexes; the region is kept if all children agree.
	bySig := map[string][]InstanceID{}
	regionFor := map[string]int{}
	for _, id := range common {
		var b strings.Builder
		region := -2 // unset
		agree := true
		for ci, ch := range children {
			gi, g := groupOf(ch, id)
			fmt.Fprintf(&b, "%d:%d;", ci, gi)
			if region == -2 {
				region = g.Region
			} else if region != g.Region {
				agree = false
			}
		}
		key := b.String()
		bySig[key] = append(bySig[key], id)
		if agree && region >= 0 {
			regionFor[key] = region
		} else {
			regionFor[key] = RegionDynamic
		}
	}
	out := Delivered{}
	for key, ids := range bySig {
		slices.Sort(ids)
		out.Groups = append(out.Groups, Group{Region: regionFor[key], Set: ids})
	}
	sortGroups(out.Groups)
	return out
}

func instancesOf(d Delivered) []InstanceID {
	var out []InstanceID
	for _, g := range d.Groups {
		out = append(out, g.Set...)
	}
	return dedupIDs(out)
}

func groupOf(d Delivered, id InstanceID) (int, Group) {
	for i, g := range d.Groups {
		if slices.Contains(g.Set, id) {
			return i, g
		}
	}
	return -1, Group{Region: RegionDynamic}
}

// Conflicting implements the paper's conflicting-property rule: the property
// is conflicting if some instance appears in two groups (its columns would
// originate from different snapshots — e.g. joining two projection views of
// one table from different regions).
func (d Delivered) Conflicting() bool {
	seen := map[InstanceID]bool{}
	for _, g := range d.Groups {
		for _, id := range g.Set {
			if seen[id] {
				return true
			}
			seen[id] = true
		}
	}
	return false
}

// Satisfies implements the consistency satisfaction rule: d satisfies c iff
// d is not conflicting and every required class is contained in some
// delivered group. Only meaningful for complete plans.
func (d Delivered) Satisfies(c Constraint) bool {
	if d.Conflicting() {
		return false
	}
	for _, cl := range c.Classes {
		ok := false
		for _, g := range d.Groups {
			if subsetIDs(cl.Set, g.Set) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Violates implements the consistency violation rule for partial plans: d
// already violates c if it is conflicting, or if some delivered group
// intersects more than one required class (those instances could never be
// brought back into one snapshot by operators above).
func (d Delivered) Violates(c Constraint) bool {
	if d.Conflicting() {
		return true
	}
	for _, g := range d.Groups {
		hits := 0
		for _, cl := range c.Classes {
			if intersects(g.Set, cl.Set) {
				hits++
			}
		}
		if hits > 1 {
			return true
		}
	}
	return false
}

// String renders the delivered property.
func (d Delivered) String() string {
	if len(d.Groups) == 0 {
		return "{}"
	}
	parts := make([]string, len(d.Groups))
	for i, g := range d.Groups {
		region := "dyn"
		if g.Region != RegionDynamic {
			region = fmt.Sprintf("R%d", g.Region)
		}
		parts[i] = fmt.Sprintf("<%s, %s>", region, idSet(g.Set))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// LocalProbability is the paper's formula (1) from Section 3.2.4: the
// probability that a local view in a region with propagation interval f and
// delay d satisfies currency bound b, assuming query start times uniformly
// distributed over the propagation cycle.
//
//	p = 0            if b-d <= 0
//	p = (b-d)/f      if 0 < b-d <= f
//	p = 1            if b-d > f
//
// Continuous propagation is modeled by f = 0: p = 1 iff b > d.
func LocalProbability(b, d, f time.Duration) float64 {
	slack := b - d
	if slack <= 0 {
		return 0
	}
	if f <= 0 || slack > f {
		return 1
	}
	return float64(slack) / float64(f)
}

// ---- small set helpers ----

func dedupIDs(ids []InstanceID) []InstanceID {
	if len(ids) == 0 {
		return nil
	}
	cp := slices.Clone(ids)
	slices.Sort(cp)
	return slices.Compact(cp)
}

func intersects(a, b []InstanceID) bool {
	for _, x := range a {
		if slices.Contains(b, x) {
			return true
		}
	}
	return false
}

func subsetIDs(a, b []InstanceID) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}

func intersectStrings(a, b []string) []string {
	var out []string
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

func idSet(ids []InstanceID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(int(id))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func sortGroups(gs []Group) {
	sort.Slice(gs, func(i, j int) bool {
		if len(gs[i].Set) > 0 && len(gs[j].Set) > 0 && gs[i].Set[0] != gs[j].Set[0] {
			return gs[i].Set[0] < gs[j].Set[0]
		}
		return gs[i].Region < gs[j].Region
	})
}
