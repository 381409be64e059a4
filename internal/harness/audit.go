package harness

import (
	"fmt"
	"io"
	"slices"
	"time"

	"relaxedcc/internal/audit"
)

// RenderAudit prints the delivered-guarantee audit section of a harness
// report: the online checker's classification ledger, every retained
// violation with its evidence, and whether the offline replay of the
// recorded read ring reproduces the online ledger. All numbers derive from
// the virtual clock and recorded events, so for a seeded run the section is
// byte-identical across replays (CI diffs it).
func RenderAudit(w io.Writer, a *audit.Auditor) {
	section(w, "Delivered-guarantee audit (serves checked against the formal semantics)")
	s := a.Summary()
	fmt.Fprintf(w, "reads checked           %d\n", s.ReadsChecked)
	fmt.Fprintf(w, "ok / disclosed          %d / %d\n", s.OK, s.Disclosed)
	fmt.Fprintf(w, "violations              %d (%d currency, %d consistency)\n",
		s.ViolationsTotal, s.CurrencyViolations, s.ConsistencyViolations)
	fmt.Fprintf(w, "unbounded / unchecked   %d / %d\n", s.Unbounded, s.Unchecked)
	fmt.Fprintf(w, "history recorded        %d commits (dropped %d reads)\n", s.Commits, s.DroppedReads)
	for _, v := range s.RecentViolations {
		fmt.Fprintf(w, "violation q%d [%s] %s region %d %q: bound %s, delivered %s (excess %s; guard saw %s, repl lag %s)\n",
			v.Query, v.Class, v.Object, v.Region, v.Label,
			time.Duration(v.BoundNS), time.Duration(v.DeliveredNS), time.Duration(v.ExcessNS),
			time.Duration(v.GuardStalenessNS), time.Duration(v.ReplLagNS))
	}
	if s.DroppedReads > 0 {
		// An overwritten ring means replay coverage is partial by
		// construction; report it as such rather than as disagreement.
		fmt.Fprintln(w, "offline replay          partial (ring drops); online ledger is authoritative")
	} else if rep := a.Replay(); replayAgrees(s, rep) {
		fmt.Fprintln(w, "offline replay          agrees with online ledger")
	} else {
		fmt.Fprintf(w, "offline replay          DISAGREES: replayed %d checked, %d violations (online %d / %d)\n",
			rep.ReadsChecked, rep.ViolationsTotal, s.ReadsChecked, s.ViolationsTotal)
	}
}

func replayAgrees(s, replay audit.Summary) bool {
	return replay.Tally == s.Tally && slices.Equal(replay.RecentViolations, s.RecentViolations)
}

// CheckAudit gates a run on its auditor's ledger: the auditor checked
// reads, every read classified exactly once, nothing fell out of the read
// ring and the offline replay reproduces the online ledger, evidence and
// all. An honest run must then show no silent violation; the deliberately
// broken guard-lie schedule (broken) must show at least one, each with
// consistent evidence — the object named, past the bound by the excess.
func CheckAudit(a *audit.Auditor, broken bool) error {
	return checkAudit(a.Summary(), a.Replay(), broken)
}

func checkAudit(s, replay audit.Summary, broken bool) error {
	if err := firstBroken("audit",
		inv{"reads_checked", s.ReadsChecked > 0},
		inv{"ok + currency_violations + disclosed + unbounded + unchecked != reads_checked",
			s.OK+s.CurrencyViolations+s.Disclosed+s.Unbounded+s.Unchecked == s.ReadsChecked},
		inv{"violations_total != currency_violations + consistency_violations", s.ViolationsTotal == s.Violations()},
		inv{"commits", s.Commits > 0},
		inv{"dropped_reads", s.DroppedReads == 0},
		inv{"offline replay disagrees with the online ledger", replayAgrees(s, replay)},
	); err != nil {
		return err
	}
	if !broken {
		return firstBroken("audit: honest run",
			inv{"violations_total", s.ViolationsTotal == 0}, inv{"recent_violations", len(s.RecentViolations) == 0})
	}
	if s.ViolationsTotal < 1 || len(s.RecentViolations) < 1 {
		return fmt.Errorf("audit: broken guard not caught: violations_total %d, %d recent_violations",
			s.ViolationsTotal, len(s.RecentViolations))
	}
	for _, v := range s.RecentViolations {
		if err := firstBroken(fmt.Sprintf("audit: violation q%d", v.Query),
			inv{"class", v.Class == audit.ClassViolationCurrency || v.Class == audit.ClassViolationConsistency},
			inv{"object", v.Object != ""}, inv{"bound_ns", v.BoundNS > 0},
			inv{"delivered_ns <= bound_ns", v.DeliveredNS > v.BoundNS},
			inv{"excess_ns != delivered_ns - bound_ns", v.ExcessNS == v.DeliveredNS-v.BoundNS},
			inv{"serve_ts_ns", v.ServeTSNS > 0},
		); err != nil {
			return err
		}
	}
	return nil
}
