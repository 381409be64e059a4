// Package tpcd generates the TPC-D-style workload of the paper's evaluation
// (Section 4): the Customer and Orders tables at a configurable scale
// factor, with the paper's key structure — Customer clustered on c_custkey
// with a secondary index on c_acctbal; Orders clustered on (o_custkey,
// o_orderkey); ten orders per customer — plus the standard cache
// configuration of Table 4.1 (cust_prj in region CR1, orders_prj in CR2)
// and the query schemas behind Tables 4.2/4.3 and Figure 4.1.
package tpcd

import (
	"fmt"
	"math/rand"
	"time"

	"relaxedcc/internal/catalog"
	"relaxedcc/internal/core"
	"relaxedcc/internal/sqltypes"
)

// Scale-1.0 cardinalities from the paper; Load scales them down.
const (
	customersAtScale1 = 150000
	ordersPerCustomer = 10
)

// Config describes a generated database.
type Config struct {
	// ScaleFactor scales row counts: 1.0 gives the paper's 150,000
	// customers and 1,500,000 orders. Benchmarks use a smaller factor.
	ScaleFactor float64
	// Seed makes generation deterministic.
	Seed int64
}

// Customers returns the number of customers at the configured scale.
func (c Config) Customers() int {
	n := int(float64(customersAtScale1) * c.ScaleFactor)
	if n < 1 {
		n = 1
	}
	return n
}

// Orders returns the number of orders at the configured scale.
func (c Config) Orders() int { return c.Customers() * ordersPerCustomer }

// AcctBalMin and AcctBalMax bound the generated account balances.
const (
	AcctBalMin = -999.99
	AcctBalMax = 9999.99
)

// CreateSchema creates Customer and Orders on the back end with the paper's
// index structure.
func CreateSchema(sys *core.System) {
	sys.MustExec(`CREATE TABLE Customer (
		c_custkey BIGINT NOT NULL,
		c_name VARCHAR(25) NOT NULL,
		c_nationkey BIGINT NOT NULL,
		c_acctbal DOUBLE NOT NULL,
		PRIMARY KEY (c_custkey))`)
	sys.MustExec("CREATE INDEX ix_cust_acctbal ON Customer (c_acctbal)")
	sys.MustExec(`CREATE TABLE Orders (
		o_custkey BIGINT NOT NULL,
		o_orderkey BIGINT NOT NULL,
		o_totalprice DOUBLE NOT NULL,
		o_orderdate TIMESTAMP NOT NULL,
		PRIMARY KEY (o_custkey, o_orderkey))`)
}

// Load bulk-loads generated rows into the back end and refreshes statistics
// on both servers.
func Load(sys *core.System, cfg Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Customers()
	const batch = 4096
	var rows []sqltypes.Row
	flush := func(table string) error {
		if len(rows) == 0 {
			return nil
		}
		if err := sys.Backend.LoadRows(table, rows); err != nil {
			return err
		}
		rows = rows[:0]
		return nil
	}
	for k := 1; k <= n; k++ {
		rows = append(rows, CustomerRow(int64(k), rng))
		if len(rows) >= batch {
			if err := flush("Customer"); err != nil {
				return err
			}
		}
	}
	if err := flush("Customer"); err != nil {
		return err
	}
	orderKey := int64(1)
	base := time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)
	for k := 1; k <= n; k++ {
		for o := 0; o < ordersPerCustomer; o++ {
			rows = append(rows, OrderRow(int64(k), orderKey, base, rng))
			orderKey++
		}
		if len(rows) >= batch {
			if err := flush("Orders"); err != nil {
				return err
			}
		}
	}
	if err := flush("Orders"); err != nil {
		return err
	}
	return sys.Analyze()
}

// CustomerRow generates one customer row.
func CustomerRow(custkey int64, rng *rand.Rand) sqltypes.Row {
	return sqltypes.Row{
		sqltypes.NewInt(custkey),
		sqltypes.NewString(fmt.Sprintf("Customer#%09d", custkey)),
		sqltypes.NewInt(rng.Int63n(25)),
		sqltypes.NewFloat(round2(AcctBalMin + rng.Float64()*(AcctBalMax-AcctBalMin))),
	}
}

// OrderRow generates one order row for the customer.
func OrderRow(custkey, orderkey int64, base time.Time, rng *rand.Rand) sqltypes.Row {
	return sqltypes.Row{
		sqltypes.NewInt(custkey),
		sqltypes.NewInt(orderkey),
		sqltypes.NewFloat(round2(900 + rng.Float64()*(500000-900))),
		sqltypes.NewTime(base.Add(time.Duration(rng.Int63n(365*24)) * time.Hour)),
	}
}

func round2(f float64) float64 { return float64(int64(f*100)) / 100 }

// Table 4.1 region ids.
const (
	RegionCR1 = 1 // cust_prj
	RegionCR2 = 2 // orders_prj
)

// SetupCache configures the paper's cache: currency regions CR1
// (interval 15s, delay 5s) and CR2 (interval 10s, delay 5s), views cust_prj
// and orders_prj clustered on their base keys with no secondary indexes
// (Table 4.1 and Section 4's view definitions).
func SetupCache(sys *core.System) error {
	if err := sys.AddRegion(&catalog.Region{
		ID: RegionCR1, Name: "CR1",
		UpdateInterval:    15 * time.Second,
		UpdateDelay:       5 * time.Second,
		HeartbeatInterval: time.Second,
	}); err != nil {
		return err
	}
	if err := sys.AddRegion(&catalog.Region{
		ID: RegionCR2, Name: "CR2",
		UpdateInterval:    10 * time.Second,
		UpdateDelay:       5 * time.Second,
		HeartbeatInterval: time.Second,
	}); err != nil {
		return err
	}
	if err := sys.CreateView(&catalog.View{
		Name:      "cust_prj",
		BaseTable: "Customer",
		Columns:   []string{"c_custkey", "c_name", "c_nationkey", "c_acctbal"},
		RegionID:  RegionCR1,
	}); err != nil {
		return err
	}
	return sys.CreateView(&catalog.View{
		Name:      "orders_prj",
		BaseTable: "Orders",
		Columns:   []string{"o_custkey", "o_orderkey", "o_totalprice"},
		RegionID:  RegionCR2,
	})
}

// NewLoadedSystem creates, loads and caches a complete system — the
// standard starting state for examples, tests and benchmarks. It advances
// simulated time far enough for both regions to have synchronized once.
func NewLoadedSystem(cfg Config) (*core.System, error) {
	sys := core.NewSystem()
	CreateSchema(sys)
	if err := SetupCache(sys); err != nil {
		return nil, err
	}
	if err := Load(sys, cfg); err != nil {
		return nil, err
	}
	// Let every region beat and propagate at least once.
	if err := sys.Run(31 * time.Second); err != nil {
		return nil, err
	}
	return sys, nil
}

// The query schemas of the paper's Section 4 (Table 4.2). $-parameters are
// substituted by fmt verbs here for convenience.

// JoinQuery is schema S1: the Customer-Orders join with a point/range
// predicate on c_custkey and an optional currency clause.
func JoinQuery(custPred, currency string) string {
	q := `SELECT C.c_custkey, C.c_name, C.c_acctbal, O.o_orderkey, O.o_totalprice
		FROM Customer C JOIN Orders O ON C.c_custkey = O.o_custkey`
	if custPred != "" {
		q += " WHERE " + custPred
	}
	if currency != "" {
		q += " " + currency
	}
	return q
}

// RangeQuery is schema S2: the single-table range query on c_acctbal used
// by Q6/Q7 and the workload-shift experiment.
func RangeQuery(a, b float64, currency string) string {
	q := fmt.Sprintf(
		"SELECT c_custkey, c_name, c_acctbal FROM Customer WHERE c_acctbal BETWEEN %.2f AND %.2f",
		a, b)
	if currency != "" {
		q += " " + currency
	}
	return q
}

// PointQuery looks up one customer by key (Table 4.4's Q1).
func PointQuery(custkey int64, currency string) string {
	q := fmt.Sprintf("SELECT c_custkey, c_name, c_acctbal FROM Customer WHERE c_custkey = %d", custkey)
	if currency != "" {
		q += " " + currency
	}
	return q
}

// CustomerOrdersQuery joins one customer with its orders (Table 4.4's Q2).
func CustomerOrdersQuery(custkey int64, currency string) string {
	q := fmt.Sprintf(`SELECT C.c_custkey, O.o_orderkey, O.o_totalprice
		FROM Customer C JOIN Orders O ON C.c_custkey = O.o_custkey
		WHERE C.c_custkey = %d`, custkey)
	if currency != "" {
		q += " " + currency
	}
	return q
}
