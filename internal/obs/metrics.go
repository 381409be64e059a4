// Package obs is the observability subsystem: a lock-free metrics registry
// (counters, gauges, log-scale latency histograms, labeled families) with
// text/JSON snapshot encoders, per-query execution trace trees, and an
// expvar-style HTTP handler serving /metrics and the rest of the ops surface.
//
// Design constraints, in order:
//
//  1. The hot path (Counter.Inc, Counter.Add, Gauge.Set, Histogram.Observe)
//     is a single atomic op — no locks, no allocation — so operators can
//     record per-batch without perturbing what they measure.
//  2. Registration (Registry.Counter etc.) is get-or-create under a mutex
//     and meant for wiring time; callers cache the returned instrument.
//  3. Metric names are validated at registration: lowercase_snake
//     ([a-z][a-z0-9_]*), unique across instrument kinds. `make lint`'s
//     metricnames analyzer enforces the same rule statically over the
//     source tree.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value. Durations are stored as
// nanoseconds.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// SetDuration stores d as nanoseconds.
func (g *Gauge) SetDuration(d time.Duration) { g.v.Store(int64(d)) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is one bucket per bit length of the observed value: bucket i
// holds values in [2^(i-1), 2^i), bucket 0 holds zero. 65 buckets cover the
// full non-negative int64 range, so nanosecond latencies from 1ns to ~292
// years land in log2-spaced buckets (resolution 2x, good enough for p50/p95/
// p99 of latency distributions spanning decades of magnitude).
const histBuckets = 65

// Histogram is a lock-free log-scale histogram of non-negative int64
// observations (by convention nanoseconds for latencies). Observe is a few
// atomic adds; quantiles are estimated from bucket boundaries on read.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// HistogramBatch collects observations for a Histogram without atomics, for
// one goroutine that observes many values at a time; Flush publishes them.
type HistogramBatch struct {
	count, sum int64
	buckets    [histBuckets]int64
}

// Observe records one value in the batch. Negative values clamp to zero.
func (b *HistogramBatch) Observe(v int64) {
	v = max(v, 0)
	b.count++
	b.sum += v
	b.buckets[bits.Len64(uint64(v))]++
}

// Flush adds the batch's observations to h and empties the batch.
func (h *Histogram) Flush(b *HistogramBatch) {
	if b.count == 0 {
		return
	}
	h.count.Add(b.count)
	h.sum.Add(b.sum)
	for i, n := range b.buckets {
		if n > 0 {
			h.buckets[i].Add(n)
		}
	}
	*b = HistogramBatch{}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 < q <= 1) as the midpoint of the
// bucket containing the q*count-th observation. Returns 0 for an empty
// histogram. Reads race benignly with concurrent writers: the estimate
// reflects some recent state.
func (h *Histogram) Quantile(q float64) int64 {
	var counts [histBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// bucketMid returns the midpoint of bucket i's value range [2^(i-1), 2^i).
func bucketMid(i int) int64 {
	if i == 0 {
		return 0
	}
	if i == 1 {
		return 1
	}
	lo := int64(1) << (i - 1)
	hi := lo << 1
	if hi < lo { // top bucket: 2^63 overflows
		return lo
	}
	return (lo + hi) / 2
}

// Vec is a family of instruments of one kind distinguished by one label
// (e.g. region id). With returns the child for a label value, creating it on
// first use; callers cache the child for hot paths.
type Vec[T any] struct {
	label string
	mu    sync.RWMutex
	kids  map[string]*T
}

// CounterVec, GaugeVec and HistogramVec are the three families.
type (
	CounterVec   = Vec[Counter]
	GaugeVec     = Vec[Gauge]
	HistogramVec = Vec[Histogram]
)

// With returns the instrument for the given label value.
func (v *Vec[T]) With(value string) *T {
	v.mu.RLock()
	k := v.kids[value]
	v.mu.RUnlock()
	if k != nil {
		return k
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if k := v.kids[value]; k != nil {
		return k
	}
	k = new(T)
	v.kids[value] = k
	return k
}

// snapshotVec stores each child's value under its `name{label="value"}` key.
func snapshotVec[T, V any](out map[string]V, name string, v *Vec[T], value func(*T) V) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for lv, k := range v.kids {
		out[labeledKey(name, v.label, lv)] = value(k)
	}
}

// ValidName reports whether a metric name is lowercase_snake:
// [a-z][a-z0-9_]*.
func ValidName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case i > 0 && (c == '_' || (c >= '0' && c <= '9')):
		default:
			return false
		}
	}
	return true
}

// Registry holds named instruments. Lookups are get-or-create: registering
// the same name with the same kind returns the existing instrument;
// registering it with a different kind, or with an invalid name, panics
// (registration is wiring-time code, like expvar.Publish).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// metric is one registered instrument: a *Counter, *Gauge, *Histogram or a
// *Vec of one of them, and the name of its kind.
type metric struct {
	kind string
	inst any
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]metric{}}
}

// register returns the instrument registered under name, creating it with
// mk on first use.
func register[T any](r *Registry, name, kind string, mk func() *T) *T {
	if !ValidName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want lowercase_snake)", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.metrics[name]
	if !ok {
		m = metric{kind, mk()}
		r.metrics[name] = m
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, not %s", name, m.kind, kind))
	}
	return m.inst.(*T)
}

// registerVec returns the named family with one label key.
func registerVec[T any](r *Registry, name, label, kind string) *Vec[T] {
	return register(r, name, kind, func() *Vec[T] { return &Vec[T]{label: label, kids: map[string]*T{}} })
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return register(r, name, "counter", func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return register(r, name, "gauge", func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return register(r, name, "histogram", func() *Histogram { return &Histogram{} })
}

// CounterVec returns the named counter family with one label key.
func (r *Registry) CounterVec(name, label string) *CounterVec {
	return registerVec[Counter](r, name, label, "counter_vec")
}

// GaugeVec returns the named gauge family with one label key.
func (r *Registry) GaugeVec(name, label string) *GaugeVec {
	return registerVec[Gauge](r, name, label, "gauge_vec")
}

// HistogramVec returns the named histogram family with one label key.
func (r *Registry) HistogramVec(name, label string) *HistogramVec {
	return registerVec[Histogram](r, name, label, "histogram_vec")
}

// HistogramSnapshot summarizes a histogram at snapshot time.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// Snapshot is a point-in-time copy of every instrument's value. Labeled
// children appear under `name{label="value"}` keys.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

func labeledKey(name, label, value string) string {
	return fmt.Sprintf("%s{%s=%q}", name, label, value)
}

func histSnap(h *Histogram) HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Snapshot copies the current value of every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for name, m := range r.metrics {
		switch in := m.inst.(type) {
		case *Counter:
			s.Counters[name] = in.Value()
		case *Gauge:
			s.Gauges[name] = in.Value()
		case *Histogram:
			s.Histograms[name] = histSnap(in)
		case *CounterVec:
			snapshotVec(s.Counters, name, in, (*Counter).Value)
		case *GaugeVec:
			snapshotVec(s.Gauges, name, in, (*Gauge).Value)
		case *HistogramVec:
			snapshotVec(s.Histograms, name, in, histSnap)
		}
	}
	return s
}

// WriteText renders the snapshot as sorted "name value" lines; histograms
// expand to _count, _sum, _p50, _p95, _p99 lines.
func (s Snapshot) WriteText(w io.Writer) error {
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+5*len(s.Histograms))
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, h := range s.Histograms {
		base, labels := name, ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			base, labels = name[:i], name[i:]
		}
		lines = append(lines,
			fmt.Sprintf("%s_count%s %d", base, labels, h.Count),
			fmt.Sprintf("%s_sum%s %d", base, labels, h.Sum),
			fmt.Sprintf("%s_p50%s %d", base, labels, h.P50),
			fmt.Sprintf("%s_p95%s %d", base, labels, h.P95),
			fmt.Sprintf("%s_p99%s %d", base, labels, h.P99))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
