// Package ignore exercises the //rcclint:ignore directive machinery: a
// valid directive suppresses exactly the finding on the next line, an
// identical finding elsewhere survives, and a directive naming an unknown
// analyzer — a misspelt one, or one that has been deleted — is itself a
// finding.
package ignore

import "time"

func Suppressed() time.Time {
	//rcclint:ignore wallclock ops-surface timestamp, never replayed
	return time.Now()
}

func Flagged() time.Time {
	return time.Now() // want:wallclock
}

func BadDirective() time.Time {
	//rcclint:ignore nosuchanalyzer bogus target; want:rcclint
	return time.Now() // want:wallclock
}

func DeletedAnalyzer(dst []int32) []int32 {
	//rcclint:ignore selvec callers treat nil and empty alike; want:rcclint
	return dst[:0]
}
