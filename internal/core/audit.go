package core

import "relaxedcc/internal/audit"

// EnableAudit installs the delivered-guarantee auditor across the system:
// every region's distribution agent reports replication progress, the
// primary cache records each executed query's guard decisions as read
// events, and the auditor's online checker classifies every serve against
// the back end's commit log, the master history; /audit (see ObsHandler) and
// the audit_* metrics expose the ledger. Idempotent; regions and views added
// later are adopted automatically. Call during quiesced setup (before
// traffic), like the other Enable* hooks.
func (s *System) EnableAudit() *audit.Auditor {
	if s.audit != nil {
		return s.audit
	}
	a := audit.New(s.Cache.Obs(), s.Backend.Log())
	s.Cache.EnableAudit(a) // registers existing views' objects + read tap
	s.audit = a
	s.adoptAll()
	return a
}

// Audit returns the installed auditor, or nil before EnableAudit.
func (s *System) Audit() *audit.Auditor { return s.audit }
