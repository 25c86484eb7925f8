// Package api pins the machine-readable half of the /v1 wire contract:
// the approved set of error-code slugs the server's uniform error envelope
// may carry and the client's typed APIError switches on, and the shape of
// the one body that grows with the database — the query answer and its
// objects (Answer, Object), with the encoder the server writes it with and
// the decoder the client reads it with. Both sides import these constants
// instead of spelling string literals, and the errenvelope analyzer
// (internal/analysis) imports the same set, so an unapproved or misspelled
// code is a build-time lint failure rather than a silent client-side
// fallthrough.
//
// The slugs are part of the public API: clients key retry/fallback logic on
// them (the replicator maps CodeWALTruncated back to the ErrWALTruncated
// sentinel, the replica set absorbs duplicate-insert retries on
// CodeConflict). Renaming one is a breaking change; adding one means adding
// it here first so every layer — server, client, analyzer — moves together.
package api

// The approved error-code slugs, one per failure class the /v1 surface
// distinguishes. The human-readable message beside a code may change
// freely; the code may not.
const (
	// CodeInternal is the catch-all for unclassified server-side failures
	// (HTTP 500).
	CodeInternal = "internal"
	// CodeBadRequest marks client errors: malformed queries, bad ids,
	// undecodable bodies (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeNotFound marks lookups of absent objects (HTTP 404).
	CodeNotFound = "not_found"
	// CodeConflict marks writes refused by object state: id already taken,
	// object still referenced (HTTP 409).
	CodeConflict = "conflict"
	// CodeTooLarge marks uploads over the body-size cap (HTTP 413).
	CodeTooLarge = "too_large"
	// CodeWALTruncated tells a tailing follower its cursor fell below the
	// leader's checkpoint floor: re-seed from a snapshot (HTTP 409).
	CodeWALTruncated = "wal_truncated"
	// CodeNoWAL marks WAL-surface calls against a store running without a
	// write-ahead log (HTTP 404).
	CodeNoWAL = "no_wal"
)

// Codes returns the full approved set in stable order.
func Codes() []string {
	return []string{
		CodeInternal,
		CodeBadRequest,
		CodeNotFound,
		CodeConflict,
		CodeTooLarge,
		CodeWALTruncated,
		CodeNoWAL,
	}
}

// IsCode reports whether s is an approved error-code slug.
func IsCode(s string) bool {
	for _, c := range Codes() {
		if s == c {
			return true
		}
	}
	return false
}
