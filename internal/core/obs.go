package core

import (
	"net/http"

	"relaxedcc/internal/obs"
)

// ObsHandler returns the fully wired ops HTTP surface for the system's
// primary cache: /metrics, /trace/last, /queries/recent, /queries/slow,
// /slo, /regions, /audit and — once EnableAutotune has run — /tuner. Every
// endpoint refreshes the staleness gauges and the audit ledger first so
// snapshots reflect current replication state even between queries. The
// tuner closure re-reads s.tuner per request, so enabling autotuning after
// the handler is built still lights up /tuner.
func (s *System) ObsHandler() http.Handler {
	return obs.NewHandler(obs.Ops{
		Registry: s.Cache.Obs(),
		Traces:   s.Cache.Traces(),
		Tracer:   s.Cache.Tracer(),
		Ledger:   s.Cache.Ledger(),
		Refresh:  s.Cache.RefreshMetrics,
		Regions:  s.Cache.RegionStatuses,
		Tuner: func() any {
			if l := s.tuner; l != nil {
				return l.Snapshot()
			}
			return nil
		},
		Audit: func() any { return s.Audit().Summary() },
	})
}
