// Package errdefs holds the structured error vocabulary shared by the
// internal layers and re-exported by the public swiftest package. Every
// failure a caller might want to dispatch on programmatically is one of
// these sentinels (matched with errors.Is) or a *ServerError wrapper
// (matched with errors.As); free-text fmt.Errorf errors always wrap one of
// them so the cause survives the trip through the layers.
package errdefs

import (
	"errors"
	"fmt"
	"time"
)

// Sentinel causes for bandwidth-test failures.
var (
	// ErrNoServers reports a test request with an empty server pool.
	ErrNoServers = errors.New("no servers configured")
	// ErrNoReachableServer reports that server selection pinged every
	// candidate and none answered.
	ErrNoReachableServer = errors.New("no reachable test server")
	// ErrModelRequired reports a test request without a bandwidth model.
	ErrModelRequired = errors.New("a bandwidth model is required")
	// ErrProbeTimeout reports a latency probe that saw no pong within its
	// deadline.
	ErrProbeTimeout = errors.New("probe timed out")
	// ErrTestAborted reports a test cancelled by its context (cancellation
	// or deadline) before completing.
	ErrTestAborted = errors.New("test aborted")
	// ErrFleetSaturated reports that the dispatch control plane admitted no
	// server for a test: every live server is at its concurrent-session cap
	// or out of admission tokens. The error usually arrives wrapped in a
	// *SaturatedError carrying a retry-after hint.
	ErrFleetSaturated = errors.New("fleet saturated")
	// ErrAuthRejected reports a session setup refused by the
	// server's lease authentication: the token was absent, forged, or minted
	// under a different fleet key.
	ErrAuthRejected = errors.New("session auth rejected")
)

// SaturatedError is the structured form of ErrFleetSaturated: the dispatcher
// rejected a test and suggests when admission capacity should be back.
// errors.Is(err, ErrFleetSaturated) matches it; errors.As recovers the hint.
type SaturatedError struct {
	// RetryAfter is the dispatcher's estimate of when a token or session
	// slot frees up. It is a hint, not a reservation.
	RetryAfter time.Duration
	// Servers is the number of live servers that were consulted and full.
	Servers int
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("%v: %d live servers at capacity, retry after %v",
		ErrFleetSaturated, e.Servers, e.RetryAfter)
}

func (e *SaturatedError) Unwrap() error { return ErrFleetSaturated }

// ServerError attributes a failure to one test server: which address, and
// which protocol operation was in flight. It wraps the underlying cause, so
// errors.Is still matches the sentinel and errors.As recovers the address.
type ServerError struct {
	Addr string // "host:port" of the server involved
	Op   string // protocol operation: "ping", "handshake", "dial", ...
	Err  error  // underlying cause
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("server %s: %s: %v", e.Addr, e.Op, e.Err)
}

func (e *ServerError) Unwrap() error { return e.Err }
