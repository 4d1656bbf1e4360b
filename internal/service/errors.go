package service

import "errors"

// Typed sentinel errors. Front ends match these with errors.Is to map
// failures to transport-level codes (the HTTP server maps client
// mistakes — parse errors, unknown languages, missing schema, bad
// statement handles or arguments — to 4xx, timeouts to 504, and
// everything else to 500) instead of guessing from error text.
var (
	// ErrParse wraps a surface-language parse failure; the underlying
	// lang error is appended to the message and wrapped too, so
	// errors.Is also matches lang.ErrConflictingConstants.
	ErrParse = errors.New("service: query parse error")
	// ErrUnknownLanguage is returned for a query language other than
	// sql, flwor or cq.
	ErrUnknownLanguage = errors.New("service: unknown query language (sql|flwor|cq)")
	// ErrNoSchema is returned when a surface-language query arrives but
	// Options.Schema was not configured.
	ErrNoSchema = errors.New("service: no schema configured for surface languages")
	// ErrUnknownStatement is returned by Execute for a statement ID that
	// was never prepared or has been closed.
	ErrUnknownStatement = errors.New("service: unknown prepared statement")
	// ErrBadArgs is returned when Execute's argument count does not match
	// the statement's parameter count.
	ErrBadArgs = errors.New("service: wrong argument count for prepared statement")
	// ErrResultTruncated is returned (in-band, after MaxResultRows rows
	// have been delivered) when a result exceeds the configured cap — a
	// runaway query surfaces a typed error instead of materializing
	// without bound.
	ErrResultTruncated = errors.New("service: result truncated at MaxResultRows")
	// ErrStoreUnavailable is returned when a store keeps failing after the
	// configured retries, or fails fast because its circuit breaker is
	// open. Front ends map it to 503: the mediator is healthy, one of its
	// stores is not.
	ErrStoreUnavailable = errors.New("service: store unavailable")
	// ErrStoreTimeout is returned when a store stalled past the query's
	// deadline (the stall was cancelled by the context, not served). Front
	// ends map it to 504 with the store attributed in the message.
	ErrStoreTimeout = errors.New("service: store timeout")
)
