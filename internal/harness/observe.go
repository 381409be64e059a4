package harness

import (
	"fmt"
	"io"
	"strings"

	"relaxedcc/internal/core"
)

// RunObservability executes the Table 4.2/4.3 query set once through the
// cache's full session pipeline and then dumps the metrics registry: guard
// branch picks and latency, per-region staleness gauges, replication agent
// throughput and cache activity. This is the same snapshot the /metrics
// HTTP endpoint serves.
func RunObservability(w io.Writer, sys *core.System) error {
	section(w, "Metrics registry snapshot (built-in observability)")
	for _, c := range PlanChoiceCases() {
		if _, err := sys.Query(c.SQL); err != nil {
			return fmt.Errorf("observability workload %s: %w", c.Name, err)
		}
	}
	sys.Cache.RefreshMetrics()
	snap := sys.Cache.Obs().Snapshot()

	var sb strings.Builder
	snap.WriteText(&sb)
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		fmt.Fprintf(w, "  %s\n", line)
	}

	// Guard pick ratio across all regions, the key signal for validating
	// the optimizer's p (probability of local currency) against reality.
	var local, remoteN int64
	for key, v := range snap.Counters {
		switch {
		case strings.HasPrefix(key, "guard_local_total"):
			local += v
		case strings.HasPrefix(key, "guard_remote_total"):
			remoteN += v
		}
	}
	if total := local + remoteN; total > 0 {
		fmt.Fprintf(w, "\n  guard picks: %d local / %d remote (%.1f%% local)\n",
			local, remoteN, 100*float64(local)/float64(total))
	}
	return nil
}
