package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"relaxedcc/internal/tpcd"
)

// hotKeys is the working set of point_hot and read_write: 256 statement
// texts fit the cache's 512-entry plan cache, so every plan is a hit.
const hotKeys = 256

// workload is one named traffic mix. Op counts are fixed up front from
// -seconds and never from the wall clock, so counters repeat exactly: a
// round issues opsPerSec × seconds / rounds operations, however long they
// take.
type workload struct {
	name string
	why  string
	// opsPerSec was calibrated once on the 2-core sizing box so that the
	// timed rounds take about -seconds there, then frozen.
	opsPerSec float64
	// vstep is the virtual time one completed op advances the system by,
	// so staleness and guard outcomes depend on the op stream only.
	vstep time.Duration
	// model marks a workload that writes: its reads are checked against a
	// model of what was written instead of against the back end.
	model bool
	gen   func(g *generator)
}

var workloads = []workload{
	{
		name:      "point_hot",
		why:       "guarded point reads on 256 keys: plan cache always hits, every guard passes, nothing goes remote, so parse, build, guard and lookup are all the time",
		opsPerSec: 80000,
		vstep:     time.Millisecond,
		gen:       genPointHot,
	},
	{
		name:      "mix_zipf",
		why:       "9:1 point/join mix, Zipf keys over all customers, bounds 2s/15s/2min: working set exceeds the plan cache and part of the answers go remote, so optimizer, link and back end work",
		opsPerSec: 30000,
		vstep:     time.Millisecond,
		gen:       genMixZipf,
	},
	{
		name:      "analytic",
		why:       "five scan/join/aggregate templates returning thousands of rows: the executor dominates and parse/plan are under 1%, so point-read changes must not move it",
		opsPerSec: 420,
		vstep:     100 * time.Millisecond,
		gen:       genAnalytic,
	},
	{
		name:      "read_write",
		why:       "95% hot point reads with a 15s bound beside 5% DML: back end, log and replication run their write side while the cache reads the same views",
		opsPerSec: 6000,
		vstep:     time.Millisecond,
		model:     true,
		gen:       genReadWrite,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Analytic templates, in the order of their exec.tmpl.* metrics.
var analyticTemplates = []string{"scan_cust", "join_local", "scan_orders", "agg_nation", "agg_top"}

// analyticWeights make no template exceed 35% of the workload's wall time
// (the driver prints each template's share).
var analyticWeights = []int{16, 1, 2, 2, 1}

func analyticSQL(tmpl int, customers int) string {
	const hour = "CURRENCY 3600 ON "
	switch tmpl {
	case 0:
		return tpcd.RangeQuery(0, 1000, hour+"(Customer)")
	case 1:
		return tpcd.JoinQuery("C.c_acctbal >= 9000", hour+"(C), 3600 ON (O)")
	case 2:
		return "SELECT o_custkey, o_orderkey, o_totalprice FROM Orders WHERE o_totalprice > 490000 " + hour + "(Orders)"
	case 3:
		return "SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM Customer GROUP BY c_nationkey " + hour + "(Customer)"
	default:
		// Restricted to a tenth of the customers so one query stays under 10 ms.
		return fmt.Sprintf("SELECT TOP 10 o_custkey, SUM(o_totalprice) AS total FROM Orders WHERE o_custkey <= %d GROUP BY o_custkey ORDER BY total DESC %s(Orders)", customers/10, hour)
	}
}

// stmt is one distinct statement of a stream.
type stmt struct {
	sql   string
	write bool
	// tmpl groups statements for preflight and per-template reporting
	// ("point/60s", "scan_cust", "update", ...).
	tmpl string
	// key, bound and val feed read_write's model: the hot key a point read
	// or UPDATE addresses, the read's currency bound, the value an UPDATE
	// writes.
	key   int
	bound time.Duration
	val   float64
}

// stream is a workload's whole op sequence, drawn up front from the seed:
// ops index into the distinct statements.
type stream struct {
	stmts []stmt
	ops   []uint32
}

// hash identifies the op sequence: same seed, same hash. Each distinct
// statement text is hashed once and the ops fold those hashes in order.
func (s *stream) hash() uint64 {
	texts := make([]uint64, len(s.stmts))
	for i := range s.stmts {
		h := fnv.New64a()
		h.Write([]byte(s.stmts[i].sql))
		texts[i] = h.Sum64()
	}
	const prime = 1099511628211 // FNV-1a's
	sum := uint64(14695981039346656037)
	for _, i := range s.ops {
		sum = (sum ^ texts[i]) * prime
	}
	return sum
}

type generator struct {
	rng       *rand.Rand
	seed      int64
	n         int
	customers int
	out       *stream
	intern    map[string]uint32
}

func (g *generator) add(s stmt) {
	idx, ok := g.intern[s.sql]
	if !ok {
		idx = uint32(len(g.out.stmts))
		g.out.stmts = append(g.out.stmts, s)
		g.intern[s.sql] = idx
	}
	g.out.ops = append(g.out.ops, idx)
}

// buildStream draws n ops of the workload from the seed.
func buildStream(w *workload, seed int64, n, customers int) *stream {
	g := &generator{
		rng:       rand.New(rand.NewSource(seed)),
		seed:      seed,
		n:         n,
		customers: customers,
		out:       &stream{ops: make([]uint32, 0, n)},
		intern:    map[string]uint32{},
	}
	w.gen(g)
	return g.out
}

func boundTag(kind string, b time.Duration) string { return kind + "/" + b.String() }

func (g *generator) hotKey() int {
	n := hotKeys
	if g.customers < n {
		n = g.customers
	}
	return 1 + g.rng.Intn(n)
}

func genPointHot(g *generator) {
	const bound = 60 * time.Second
	for i := 0; i < g.n; i++ {
		k := g.hotKey()
		g.add(stmt{sql: tpcd.PointQuery(int64(k), "CURRENCY 60 ON (Customer)"), tmpl: boundTag("point", bound), key: k, bound: bound})
	}
}

func genMixZipf(g *generator) {
	keys := tpcd.NewKeySampler(g.seed, g.customers, tpcd.DefaultZipfS, tpcd.DefaultZipfV)
	mix := tpcd.DefaultMix()
	// Bounds 2s / 15s / 2min weighted 2:3:5. Joins draw only 15s / 2min:
	// a two-region join with both bounds under the region delay has no plan
	// today (see README, findings).
	bounds := []time.Duration{2 * time.Second, 15 * time.Second, 2 * time.Minute}
	for i := 0; i < g.n; i++ {
		kind := mix.Pick(g.rng)
		k := keys.Next()
		var b time.Duration
		tag := "point"
		if kind == tpcd.KindJoin {
			tag = "join"
			b = bounds[1]
			if g.rng.Intn(8) >= 3 {
				b = bounds[2]
			}
		} else {
			switch r := g.rng.Intn(10); {
			case r < 2:
				b = bounds[0]
			case r < 5:
				b = bounds[1]
			default:
				b = bounds[2]
			}
		}
		g.add(stmt{sql: tpcd.Query(kind, k, b), tmpl: boundTag(tag, b), key: int(k), bound: b})
	}
}

// blocks returns a draw function over categories 0..len(weights)-1 that
// yields each category exactly weights[i] times per block of sum(weights)
// draws, in seeded random order. A mix drawn this way has the same
// proportions in every round and for every seed, so per-op counters and
// throughput do not move with the luck of the draw; only the order does.
func (g *generator) blocks(weights []int) func() int {
	var block []int
	for c, w := range weights {
		for i := 0; i < w; i++ {
			block = append(block, c)
		}
	}
	next := len(block)
	return func() int {
		if next == len(block) {
			g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			next = 0
		}
		next++
		return block[next-1]
	}
}

func genAnalytic(g *generator) {
	draw := g.blocks(analyticWeights)
	for i := 0; i < g.n; i++ {
		t := draw()
		g.add(stmt{sql: analyticSQL(t, g.customers), tmpl: analyticTemplates[t], bound: time.Hour})
	}
}

func genReadWrite(g *generator) {
	const bound = 15 * time.Second
	// Inserted orders get keys above every generated one; deletes remove
	// the oldest inserted row, so no DML ever misses or collides.
	nextOrder := int64(g.customers*10 + 1)
	type ord struct{ cust, key int64 }
	var inserted []ord
	// Per 200 ops: 190 reads, 8 UPDATEs, 1 INSERT, 1 DELETE.
	const (
		read = iota
		update
		insert
	)
	draw := g.blocks([]int{190, 8, 1, 1})
	for i := 0; i < g.n; i++ {
		kind := draw()
		switch {
		case kind == read:
			k := g.hotKey()
			g.add(stmt{sql: tpcd.PointQuery(int64(k), "CURRENCY 15 ON (Customer)"), tmpl: boundTag("point", bound), key: k, bound: bound})
		case kind == update:
			k := g.hotKey()
			v := float64(g.rng.Intn(1000000)) / 100
			g.add(stmt{sql: fmt.Sprintf("UPDATE Customer SET c_acctbal = %.2f WHERE c_custkey = %d", v, k), write: true, tmpl: "update", key: k, val: v})
		case kind == insert || len(inserted) == 0:
			o := ord{int64(g.hotKey()), nextOrder}
			nextOrder++
			inserted = append(inserted, o)
			price := float64(900+g.rng.Intn(499100)) + 0.5
			g.add(stmt{sql: fmt.Sprintf("INSERT INTO Orders VALUES (%d, %d, %.2f, GETDATE())", o.cust, o.key, price), write: true, tmpl: "insert"})
		default:
			o := inserted[0]
			inserted = inserted[1:]
			g.add(stmt{sql: fmt.Sprintf("DELETE FROM Orders WHERE o_custkey = %d AND o_orderkey = %d", o.cust, o.key), write: true, tmpl: "delete"})
		}
	}
}
