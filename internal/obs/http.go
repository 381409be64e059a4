package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
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
	Tracer   *Tracer
	Ledger   *RegionLedger
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
	// Reads supplies the auditor's side of /queries/{id}: the query's read
	// events and their verdict, nil when the auditor's ring keeps none (an
	// unguarded or overwritten query), and the ring's size. Nil keeps none.
	Reads func(query uint64) (reads any, ring int)
}

// NewHandler serves the full ops surface:
//
//	/metrics          text snapshot; ?format=json for the JSON encoding
//	/queries/recent   sampled query-lifecycle records, newest first
//	                  (?limit=N, default 50)
//	/queries/{id}     one query: its sampled record (guards, EXPLAIN ANALYZE
//	                  tree), its read events and their audit verdict; 404
//	                  with both ring sizes when neither ring holds it
//	/slo              per-region currency SLO snapshot (within-bound ratio,
//	                  error budget, served-staleness percentiles)
//	/regions          currency regions with cadence and live staleness
//	/tuner            autotuning loop snapshot (hysteresis config, per-region
//	                  intervals, full decision timeline)
//	/audit            delivered-guarantee audit ledger (classification
//	                  counts, recent violations with evidence)
//	/debug/pprof/     the Go runtime's profiles (net/http/pprof)
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
	mux.HandleFunc("/queries/recent", func(w http.ResponseWriter, r *http.Request) {
		if o.Tracer == nil {
			http.Error(w, "no tracer", http.StatusNotFound)
			return
		}
		recs := o.Tracer.Recent()
		if limit := queryLimit(r, 50); len(recs) > limit {
			recs = recs[:limit]
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"sample_every": o.Tracer.SampleEvery(),
			"queries":      recs,
		})
	})
	mux.HandleFunc("/queries/{id}", func(w http.ResponseWriter, r *http.Request) {
		if o.Tracer == nil {
			http.Error(w, "no tracer", http.StatusNotFound)
			return
		}
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error": "bad query id " + strconv.Quote(r.PathValue("id")) + ": want a decimal query_id"})
			return
		}
		var reads any
		var ring int
		if o.Reads != nil {
			reads, ring = o.Reads(id)
		}
		rec, sampled := o.Tracer.Record(id)
		if !sampled && reads == nil {
			writeJSON(w, http.StatusNotFound, map[string]any{
				"error":        "query " + strconv.FormatUint(id, 10) + " is in neither the record ring nor the read ring",
				"sample_every": o.Tracer.SampleEvery(),
				"record_ring":  o.Tracer.ring.Cap(),
				"read_ring":    ring,
			})
			return
		}
		body := struct {
			QueryID uint64       `json:"query_id"`
			Record  *QueryRecord `json:"record"`
			Reads   any          `json:"reads"`
		}{QueryID: id, Reads: reads}
		if sampled {
			body.Record = &rec
		}
		writeJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		if o.Ledger == nil {
			http.Error(w, "no region ledger", http.StatusNotFound)
			return
		}
		if o.Refresh != nil {
			o.Refresh()
		}
		writeJSON(w, http.StatusOK, o.Ledger.SLO())
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
		writeJSON(w, http.StatusOK, snap)
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
		writeJSON(w, http.StatusOK, snap)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
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
		writeJSON(w, http.StatusOK, map[string]any{"regions": regions})
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

// writeJSON writes v indented with the JSON content type and the status
// code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Serve starts an HTTP server for the handler on addr in a background
// goroutine and returns the server plus its bound address (useful with
// ":0"). The caller owns shutdown via srv.Close. It has no auth and no
// timeouts, and NewHandler serves pprof: bind addr to loopback.
func Serve(addr string, h http.Handler) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}
