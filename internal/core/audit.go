package core

import "relaxedcc/internal/audit"

// Audit returns the primary cache's delivered-guarantee auditor: every
// region's distribution agent reports replication progress to it, the cache
// records each answered query's guard decisions as read events, and its fold
// classifies every serve against the back end's commit log, the master
// history; /audit (see ObsHandler) and the audit_* metrics expose the ledger.
func (s *System) Audit() *audit.Auditor { return s.Cache.Audit() }

// EnableAudit returns Audit(), for callers that still enable the auditor.
func (s *System) EnableAudit() *audit.Auditor { return s.Audit() }
