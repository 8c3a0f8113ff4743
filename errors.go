package swiftest

import "github.com/mobilebandwidth/swiftest/internal/errdefs"

// Structured error vocabulary. Every error returned by TestContext,
// PingServer and SimulateTestContext wraps one of these sentinels (match
// with errors.Is) or a *ServerError (match with errors.As), so callers can
// dispatch on the failure class without string matching.
var (
	// ErrNoServers reports a test request with an empty server pool.
	ErrNoServers = errdefs.ErrNoServers
	// ErrNoReachableServer reports that server selection pinged every
	// candidate and none answered.
	ErrNoReachableServer = errdefs.ErrNoReachableServer
	// ErrModelRequired reports a test request without a bandwidth model.
	ErrModelRequired = errdefs.ErrModelRequired
	// ErrProbeTimeout reports a latency probe that saw no pong within its
	// deadline.
	ErrProbeTimeout = errdefs.ErrProbeTimeout
	// ErrTestAborted reports a test cancelled by its context (cancellation
	// or deadline) before completing.
	ErrTestAborted = errdefs.ErrTestAborted
	// ErrAuthRejected reports that a keyed server refused the session token
	// (missing, forged, or minted under a different deployment key; see
	// TestOptions.Token and ServerOptions.AuthKey).
	ErrAuthRejected = errdefs.ErrAuthRejected
)

// ServerError attributes a failure to one test server: which address, and
// which protocol operation ("ping", "handshake", "dial", ...) was in
// flight. It wraps the underlying cause, so errors.Is still matches the
// sentinel and errors.As recovers the address.
type ServerError = errdefs.ServerError
