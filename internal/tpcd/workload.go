package tpcd

import (
	"fmt"
	"math/rand"
	"time"
)

// Workload shaping for the load sweep (internal/harness): deterministic
// Zipf-skewed key selection over the generated customer population and a
// weighted query mix over the paper's Section 4 query schemas. Everything
// here is seeded — two samplers built from the same arguments produce the
// same draw sequence, which is what makes same-seed load reports
// byte-identical.

// KeySampler draws customer keys with Zipf-skewed popularity: rank 0 (the
// hottest customer) maps to c_custkey 1, rank 1 to key 2, and so on. The
// skew models the real-traffic property the microbenches cannot: a small
// set of hot keys dominates, so cached-view hits and currency-guard
// decisions concentrate where replication lag hurts most.
type KeySampler struct {
	zipf *rand.Zipf
}

// Default Zipf shape for the load generator: s=1.2 is a moderately heavy
// skew (top-10 keys draw roughly half the traffic over a few hundred keys),
// v=1 anchors the distribution at rank 0.
const (
	DefaultZipfS = 1.2
	DefaultZipfV = 1.0
)

// NewKeySampler builds a sampler over keys 1..n. s must be > 1 and v >= 1
// (rand.NewZipf's contract); values at or below the minimum fall back to
// the defaults. The sampler is NOT safe for concurrent use; callers own
// the draw order, which is part of the deterministic schedule.
func NewKeySampler(seed int64, n int, s, v float64) *KeySampler {
	if n < 1 {
		n = 1
	}
	if s <= 1 {
		s = DefaultZipfS
	}
	if v < 1 {
		v = DefaultZipfV
	}
	rng := rand.New(rand.NewSource(seed))
	return &KeySampler{zipf: rand.NewZipf(rng, s, v, uint64(n-1))}
}

// Next draws one customer key in [1, n], hottest first by rank.
func (k *KeySampler) Next() int64 {
	return int64(k.zipf.Uint64()) + 1
}

// QueryKind is one of the workload's query templates.
type QueryKind int

// The load generator's query templates, in increasing execution weight.
const (
	// KindPoint is the paper's Q1: a point lookup on Customer (region CR1).
	KindPoint QueryKind = iota
	// KindJoin is the paper's Q2: one customer joined with its orders,
	// touching both currency regions (CR1 and CR2).
	KindJoin
)

// Mix is a weighted query-template mix. Weights are relative; zero-weight
// kinds never fire.
type Mix struct {
	PointWeight int
	JoinWeight  int
}

// DefaultMix is the load generator's default: mostly point lookups with a
// tail of cross-region joins, the shape of an order-status workload.
func DefaultMix() Mix { return Mix{PointWeight: 9, JoinWeight: 1} }

// Pick draws one query kind from the mix using the caller's seeded rng.
func (m Mix) Pick(rng *rand.Rand) QueryKind {
	total := m.PointWeight + m.JoinWeight
	if total <= 0 {
		return KindPoint
	}
	if rng.Intn(total) < m.PointWeight {
		return KindPoint
	}
	return KindJoin
}

// CurrencyMS renders a single-table currency clause with a millisecond
// bound on Customer, the form the point query takes.
func CurrencyMS(bound time.Duration) string {
	return fmt.Sprintf("CURRENCY %d MS ON (Customer)", bound.Milliseconds())
}

// Query renders the SQL for one (kind, key, bound) draw against the
// standard TPC-D cache configuration. An unbounded query (bound <= 0)
// carries no currency clause.
func Query(kind QueryKind, key int64, bound time.Duration) string {
	switch kind {
	case KindJoin:
		if bound <= 0 {
			return CustomerOrdersQuery(key, "")
		}
		ms := bound.Milliseconds()
		return CustomerOrdersQuery(key, fmt.Sprintf("CURRENCY %d MS ON (C), %d MS ON (O)", ms, ms))
	default:
		if bound <= 0 {
			return PointQuery(key, "")
		}
		return PointQuery(key, CurrencyMS(bound))
	}
}
