package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// RegionStatus is one currency region's row on the /regions endpoint:
// static cadence from the catalog plus the live staleness the guards see.
// Durations are nanoseconds for stable JSON.
type RegionStatus struct {
	ID                  int    `json:"id"`
	Name                string `json:"name"`
	UpdateIntervalNS    int64  `json:"update_interval_ns"`
	UpdateDelayNS       int64  `json:"update_delay_ns"`
	HeartbeatIntervalNS int64  `json:"heartbeat_interval_ns"`
	// StalenessNS is now minus the region's last replicated heartbeat;
	// valid only when Synced (a region that never synchronized has unknown
	// staleness).
	StalenessNS int64 `json:"staleness_ns"`
	Synced      bool  `json:"synced"`
	// TxnsApplied is the distribution agent's lifetime transaction count.
	TxnsApplied int64 `json:"txns_applied"`
}

// Ops bundles everything the ops HTTP surface serves. Nil fields disable
// their endpoints with 404s, so partial wiring (e.g. a registry with no
// tracer) still yields a working handler.
type Ops struct {
	Registry *Registry
	Traces   *TraceStore
	Tracer   *Tracer
	SLO      *SLOTracker
	// Refresh, when non-nil, runs before /metrics, /slo and /regions
	// snapshots so derived gauges (per-region staleness) are current.
	Refresh func()
	// Regions supplies the /regions rows.
	Regions func() []RegionStatus
	// Tuner supplies the /tuner payload (the autotuning loop's snapshot:
	// config, per-region state, decision timeline). Nil — or a non-nil
	// func returning nil — disables the endpoint with a 404, so a system
	// without EnableAutotune keeps a working surface.
	Tuner func() any
	// Audit supplies the /audit payload (the delivered-guarantee auditor's
	// ledger summary plus recent violations with evidence). Same nil
	// contract as Tuner.
	Audit func() any
}

// NewHandler serves the full ops surface:
//
//	/metrics          text snapshot; ?format=json for the JSON encoding
//	/trace/last       the most recent EXPLAIN ANALYZE trace tree
//	/queries/recent   sampled query-lifecycle records, newest first
//	                  (?limit=N, default 50)
//	/queries/slow     records at or above a latency threshold, slowest
//	                  first (?threshold=10ms&limit=N)
//	/slo              per-region currency SLO snapshot (within-bound ratio,
//	                  error budget, served-staleness percentiles)
//	/regions          currency regions with cadence and live staleness
//	/tuner            autotuning loop snapshot (hysteresis config, per-region
//	                  intervals, full decision timeline)
//	/audit            delivered-guarantee audit ledger (classification
//	                  counts, recent violations with evidence)
func NewHandler(o Ops) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if o.Refresh != nil {
			o.Refresh()
		}
		if o.Registry == nil {
			http.Error(w, "no registry", http.StatusNotFound)
			return
		}
		snap := o.Registry.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = snap.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = snap.WriteText(w)
	})
	mux.HandleFunc("/trace/last", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if o.Traces == nil {
			http.Error(w, "no trace store", http.StatusNotFound)
			return
		}
		sql, root := o.Traces.Last()
		if root == nil {
			fmt.Fprintln(w, "no trace recorded; run EXPLAIN ANALYZE <query>")
			return
		}
		fmt.Fprintf(w, "-- %s\n", sql)
		root.Render(w)
	})
	mux.HandleFunc("/queries/recent", func(w http.ResponseWriter, r *http.Request) {
		if o.Tracer == nil {
			http.Error(w, "no tracer", http.StatusNotFound)
			return
		}
		recs := o.Tracer.Recent()
		if limit := queryLimit(r, 50); len(recs) > limit {
			recs = recs[:limit]
		}
		writeJSON(w, map[string]any{
			"sample_every": o.Tracer.SampleEvery(),
			"queries":      recs,
		})
	})
	mux.HandleFunc("/queries/slow", func(w http.ResponseWriter, r *http.Request) {
		if o.Tracer == nil {
			http.Error(w, "no tracer", http.StatusNotFound)
			return
		}
		threshold := time.Duration(0)
		if t := r.URL.Query().Get("threshold"); t != "" {
			d, err := time.ParseDuration(t)
			if err != nil || d < 0 {
				writeJSONError(w, http.StatusBadRequest,
					"bad threshold "+strconv.Quote(t)+": want a non-negative Go duration, e.g. 10ms")
				return
			}
			threshold = d
		}
		recs := o.Tracer.Recent()
		slow := recs[:0]
		for _, rec := range recs {
			if rec.TotalNS >= int64(threshold) {
				slow = append(slow, rec)
			}
		}
		// Slowest first; ties broken newest-first for a stable order.
		sortRecordsByTotal(slow)
		if limit := queryLimit(r, 50); len(slow) > limit {
			slow = slow[:limit]
		}
		writeJSON(w, map[string]any{
			"threshold_ns": int64(threshold),
			"queries":      slow,
		})
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		if o.SLO == nil {
			http.Error(w, "no slo tracker", http.StatusNotFound)
			return
		}
		if o.Refresh != nil {
			o.Refresh()
		}
		writeJSON(w, o.SLO.Snapshot())
	})
	mux.HandleFunc("/tuner", func(w http.ResponseWriter, r *http.Request) {
		var snap any
		if o.Tuner != nil {
			snap = o.Tuner()
		}
		if snap == nil {
			http.Error(w, "no autotuner", http.StatusNotFound)
			return
		}
		if o.Refresh != nil {
			o.Refresh()
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/audit", func(w http.ResponseWriter, r *http.Request) {
		var snap any
		if o.Audit != nil {
			snap = o.Audit()
		}
		if snap == nil {
			http.Error(w, "no auditor", http.StatusNotFound)
			return
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/regions", func(w http.ResponseWriter, r *http.Request) {
		if o.Regions == nil {
			http.Error(w, "no region source", http.StatusNotFound)
			return
		}
		if o.Refresh != nil {
			o.Refresh()
		}
		regions := o.Regions()
		if regions == nil {
			regions = []RegionStatus{}
		}
		writeJSON(w, map[string]any{"regions": regions})
	})
	return mux
}

// queryLimit parses ?limit=N with a default; non-positive or unparsable
// values keep the default.
func queryLimit(r *http.Request, def int) int {
	if s := r.URL.Query().Get("limit"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// sortRecordsByTotal orders records by TotalNS descending, then Seq
// descending (insertion sort: slow lists are short and already mostly
// ordered by recency).
func sortRecordsByTotal(recs []QueryRecord) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0; j-- {
			a, b := &recs[j-1], &recs[j]
			if a.TotalNS > b.TotalNS || (a.TotalNS == b.TotalNS && a.Seq > b.Seq) {
				break
			}
			recs[j-1], recs[j] = recs[j], recs[j-1]
		}
	}
}

// writeJSONError writes a JSON error body ({"error": msg}) with the given
// status, so machine clients of the ops surface never have to sniff plain
// text on failures.
func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]string{"error": msg})
}

// writeJSON writes v indented with the JSON content type.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Serve starts an HTTP server for the handler on addr in a background
// goroutine and returns the server plus its bound address (useful with
// ":0"). The caller owns shutdown via srv.Close.
func Serve(addr string, h http.Handler) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}
