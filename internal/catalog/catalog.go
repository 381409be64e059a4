// Package catalog holds the metadata both servers operate on: table and
// index definitions, materialized-view definitions at the cache, currency
// regions, and optimizer statistics.
//
// Following the paper (Section 3), the cache DBMS keeps a *shadow* catalog:
// the same tables as the back end, but with statistics reflecting the
// back-end data rather than the (empty) shadow tables. Catalog supports this
// with Clone, and with statistics that are set explicitly rather than derived
// from local row counts.
//
// Currency-region metadata follows Section 3.1: each cached view carries the
// id of its region (cid), and each region records update_interval (how often
// the distribution agent propagates) and update_delay (the propagation
// delay) — both used only for cost estimation.
package catalog

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"relaxedcc/internal/sqltypes"
)

// Column describes one table or view column.
type Column struct {
	Name    string
	Type    sqltypes.Kind
	NotNull bool
}

// Index describes a clustered or secondary index.
type Index struct {
	Name      string
	Table     string
	Columns   []string // key columns, in order
	Unique    bool
	Clustered bool
}

// Table describes a base table (or the shadow of one) plus its indexes.
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey []string // column names; also the clustered index key
	Indexes    []*Index // includes the implicit clustered PK index
	Stats      *TableStats
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Column returns the definition of the named column, or nil.
func (t *Table) Column(name string) *Column {
	if i := t.ColumnIndex(name); i >= 0 {
		return &t.Columns[i]
	}
	return nil
}

// PKOrdinals returns the column ordinals of the primary key.
func (t *Table) PKOrdinals() []int {
	out := make([]int, len(t.PrimaryKey))
	for i, name := range t.PrimaryKey {
		out[i] = t.ColumnIndex(name)
	}
	return out
}

// IndexOn returns an index whose leading key columns match cols exactly (in
// order), preferring the clustered index, or nil.
func (t *Table) IndexOn(cols ...string) *Index {
	var found *Index
	for _, idx := range t.Indexes {
		if len(idx.Columns) < len(cols) {
			continue
		}
		ok := true
		for i, c := range cols {
			if idx.Columns[i] != c {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if idx.Clustered {
			return idx
		}
		if found == nil {
			found = idx
		}
	}
	return found
}

// Clone returns a deep copy of the table definition.
func (t *Table) Clone() *Table { return t.clone() }

// clone returns a deep copy of the table definition.
func (t *Table) clone() *Table {
	cp := &Table{
		Name:       t.Name,
		Columns:    append([]Column(nil), t.Columns...),
		PrimaryKey: append([]string(nil), t.PrimaryKey...),
	}
	for _, idx := range t.Indexes {
		ic := *idx
		ic.Columns = append([]string(nil), idx.Columns...)
		cp.Indexes = append(cp.Indexes, &ic)
	}
	if t.Stats != nil {
		cp.Stats = t.Stats.Clone()
	}
	return cp
}

// CompareOp is a comparison operator in a simple view predicate.
type CompareOp int

// Comparison operators for simple predicates.
const (
	OpEQ CompareOp = iota
	OpLT
	OpLE
	OpGT
	OpGE
)

// String renders the operator in SQL.
func (op CompareOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return fmt.Sprintf("CompareOp(%d)", int(op))
	}
}

// SimplePred is a predicate of the form column <op> literal. Materialized
// views at the cache are selections (conjunctions of SimplePreds) and
// projections of a single back-end table, as in the paper's prototype.
type SimplePred struct {
	Column string
	Op     CompareOp
	Value  sqltypes.Value
}

// String renders the predicate in SQL.
func (p SimplePred) String() string {
	return fmt.Sprintf("%s %s %s", p.Column, p.Op, p.Value)
}

// View describes a materialized view cached at the mid tier: a
// selection/projection of one back-end table, maintained by transactional
// replication, belonging to a currency region.
type View struct {
	Name      string
	BaseTable string
	Columns   []string     // projected base-table columns; must include the PK
	Preds     []SimplePred // conjunctive selection over base columns; empty = whole table
	RegionID  int          // cid: the currency region maintaining this view
}

// clone returns a deep copy of the view definition.
func (v *View) clone() *View {
	cp := *v
	cp.Columns = append([]string(nil), v.Columns...)
	cp.Preds = append([]SimplePred(nil), v.Preds...)
	return &cp
}

// ColumnIndex returns the ordinal of name within the view's projection, or -1.
func (v *View) ColumnIndex(name string) int {
	for i, c := range v.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// MasterRegionID is the reserved region id of the back-end (master)
// database itself: always current and internally consistent.
const MasterRegionID = 0

// Region is a currency region (Section 3.1): the set of cached views
// maintained by one distribution agent, mutually consistent at all times.
type Region struct {
	ID                int
	Name              string
	UpdateInterval    time.Duration // f: how often the agent propagates
	UpdateDelay       time.Duration // d: propagation delay to the front end
	HeartbeatInterval time.Duration // how often the region's heart beats
}

// MinCurrency returns the minimum staleness bound the region can ever
// guarantee — its propagation delay. A query bound below this can never be
// satisfied from the region (the compile-time pruning optimization in
// Section 3.2.2).
func (r *Region) MinCurrency() time.Duration { return r.UpdateDelay }

// MaxCurrency returns the worst-case staleness for the region under periodic
// propagation: delay + interval (Figure 3.2).
func (r *Region) MaxCurrency() time.Duration { return r.UpdateDelay + r.UpdateInterval }

// Catalog is a thread-safe collection of tables, views and regions.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	views   map[string]*View
	regions map[int]*Region
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  map[string]*Table{},
		views:   map[string]*View{},
		regions: map[int]*Region{},
	}
}

// AddTable registers a table. The clustered PK index is added implicitly if
// absent. It returns an error on duplicates or malformed definitions.
func (c *Catalog) AddTable(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("catalog: table with empty name")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table %s has no columns", t.Name)
	}
	if len(t.PrimaryKey) == 0 {
		return fmt.Errorf("catalog: table %s has no primary key", t.Name)
	}
	seen := map[string]bool{}
	for _, col := range t.Columns {
		if seen[col.Name] {
			return fmt.Errorf("catalog: table %s: duplicate column %s", t.Name, col.Name)
		}
		seen[col.Name] = true
	}
	for _, pk := range t.PrimaryKey {
		if !seen[pk] {
			return fmt.Errorf("catalog: table %s: primary key column %s not defined", t.Name, pk)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[t.Name]; ok {
		return fmt.Errorf("catalog: table %s already exists", t.Name)
	}
	hasClustered := false
	for _, idx := range t.Indexes {
		if idx.Clustered {
			hasClustered = true
		}
		idx.Table = t.Name
	}
	if !hasClustered {
		t.Indexes = append([]*Index{{
			Name:      "pk_" + t.Name,
			Table:     t.Name,
			Columns:   append([]string(nil), t.PrimaryKey...),
			Unique:    true,
			Clustered: true,
		}}, t.Indexes...)
	}
	if t.Stats == nil {
		t.Stats = NewTableStats()
	}
	c.tables[t.Name] = t
	return nil
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[name]
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddIndex registers a secondary index on an existing table.
func (c *Catalog) AddIndex(idx *Index) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[idx.Table]
	if !ok {
		return fmt.Errorf("catalog: index %s: no table %s", idx.Name, idx.Table)
	}
	for _, existing := range t.Indexes {
		if existing.Name == idx.Name {
			return fmt.Errorf("catalog: index %s already exists on %s", idx.Name, idx.Table)
		}
	}
	for _, col := range idx.Columns {
		if t.ColumnIndex(col) < 0 {
			return fmt.Errorf("catalog: index %s: no column %s on %s", idx.Name, col, idx.Table)
		}
	}
	t.Indexes = append(t.Indexes, idx)
	return nil
}

// AddView registers a materialized-view definition at the cache.
func (c *Catalog) AddView(v *View) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.views[v.Name]; ok {
		return fmt.Errorf("catalog: view %s already exists", v.Name)
	}
	t, ok := c.tables[v.BaseTable]
	if !ok {
		return fmt.Errorf("catalog: view %s: no base table %s", v.Name, v.BaseTable)
	}
	for _, col := range v.Columns {
		if t.ColumnIndex(col) < 0 {
			return fmt.Errorf("catalog: view %s: no column %s on %s", v.Name, col, v.BaseTable)
		}
	}
	for _, pk := range t.PrimaryKey {
		if v.ColumnIndex(pk) < 0 {
			return fmt.Errorf("catalog: view %s must project primary key column %s", v.Name, pk)
		}
	}
	for _, p := range v.Preds {
		if t.ColumnIndex(p.Column) < 0 {
			return fmt.Errorf("catalog: view %s: predicate column %s not on %s", v.Name, p.Column, v.BaseTable)
		}
	}
	if _, ok := c.regions[v.RegionID]; !ok && v.RegionID != MasterRegionID {
		return fmt.Errorf("catalog: view %s: unknown currency region %d", v.Name, v.RegionID)
	}
	c.views[v.Name] = v
	return nil
}

// View returns the named view, or nil.
func (c *Catalog) View(name string) *View {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.views[name]
}

// Views returns all views sorted by name.
func (c *Catalog) Views() []*View {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*View, 0, len(c.views))
	for _, v := range c.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ViewsOf returns the views over the given base table, sorted by name.
func (c *Catalog) ViewsOf(baseTable string) []*View {
	var out []*View
	for _, v := range c.Views() {
		if v.BaseTable == baseTable {
			out = append(out, v)
		}
	}
	return out
}

// AddRegion registers a currency region.
func (c *Catalog) AddRegion(r *Region) error {
	if r.ID == MasterRegionID {
		return fmt.Errorf("catalog: region id %d is reserved for the master database", MasterRegionID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.regions[r.ID]; ok {
		return fmt.Errorf("catalog: region %d already exists", r.ID)
	}
	if r.HeartbeatInterval <= 0 {
		r.HeartbeatInterval = 2 * time.Second // the paper's example rate
	}
	c.regions[r.ID] = r
	return nil
}

// Region returns the region with the given id, or nil.
func (c *Catalog) Region(id int) *Region {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.regions[id]
}

// Regions returns all regions sorted by id.
func (c *Catalog) Regions() []*Region {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Region, 0, len(c.regions))
	for _, r := range c.regions {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Clone returns a deep copy of the catalog — used to build the cache's
// shadow catalog from the back end's, statistics included.
func (c *Catalog) Clone() *Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := New()
	for name, t := range c.tables {
		out.tables[name] = t.clone()
	}
	for name, v := range c.views {
		out.views[name] = v.clone()
	}
	for id, r := range c.regions {
		rc := *r
		out.regions[id] = &rc
	}
	return out
}
