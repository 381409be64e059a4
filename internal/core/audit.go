package core

import "relaxedcc/internal/audit"

// EnableAudit installs the delivered-guarantee auditor across the system:
// the back-end commit log streams master history into it, every region's
// distribution agent reports replication progress, and the primary cache
// records each executed query's guard decisions as read events. The
// auditor's online checker classifies every serve against the formal
// semantics; /audit (see ObsHandler) and the audit_* metrics expose the
// ledger. Idempotent; regions and views added later are adopted
// automatically. Call during quiesced setup (before traffic), like the
// other Enable* hooks.
func (s *System) EnableAudit() *audit.Auditor {
	if s.audit != nil {
		return s.audit
	}
	a := audit.New(s.Cache.Obs())
	// Replay the history that predates enabling (schema setup, data loads)
	// so the checker's oracle starts from the true H_n, then tap new
	// commits. Setup is quiesced, so no commit can fall in between.
	for _, rec := range s.Backend.Log().Since(0) {
		a.ObserveCommit(rec)
	}
	s.Backend.Log().SetObserver(a.ObserveCommit)
	s.Cache.EnableAudit(a) // registers existing views' objects + read tap
	s.audit = a
	s.adoptAll()
	return a
}

// Audit returns the installed auditor, or nil before EnableAudit.
func (s *System) Audit() *audit.Auditor { return s.audit }
