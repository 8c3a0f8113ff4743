package transport

import (
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// serverMetrics holds the server's obs handles. It is a value struct: built
// from a nil registry every handle is nil, and every update degrades to a
// nil check — the server's hot pacing loop pays nothing when metrics are
// disabled.
type serverMetrics struct {
	sessionsActive   *obs.Gauge
	sessionsStarted  *obs.Counter
	sessionsFinished *obs.Counter
	sessionsReaped   *obs.Counter
	datagramsSent    *obs.Counter
	bytesSent        *obs.Counter
	sendErrors       *obs.Counter
	sendBatches      *obs.Counter
	batchDatagrams   *obs.Histogram
	rateClamped      *obs.Counter
	faultsInjected   *obs.Counter
	pings            *obs.Counter
	authRejects      *obs.Counter
	pacedMbps        *obs.Gauge
	uplinkMbps       *obs.Gauge
	resultMbps       *obs.Histogram
}

// newServerMetrics registers the server's metric series on reg; a nil reg
// yields the zero struct, disabling instrumentation.
func newServerMetrics(reg *obs.Registry) serverMetrics {
	if reg == nil {
		return serverMetrics{}
	}
	return serverMetrics{
		sessionsActive: reg.Gauge("swiftest_server_sessions_active",
			"Bandwidth-test sessions currently being paced."),
		sessionsStarted: reg.Counter("swiftest_server_sessions_started_total",
			"Test sessions accepted."),
		sessionsFinished: reg.Counter("swiftest_server_sessions_finished_total",
			"Test sessions closed by a client Bye."),
		sessionsReaped: reg.Counter("swiftest_server_sessions_reaped_total",
			"Test sessions reaped by the idle timeout (client vanished without Bye)."),
		datagramsSent: reg.Counter("swiftest_server_datagrams_sent_total",
			"Probe datagrams written to the socket."),
		bytesSent: reg.Counter("swiftest_server_bytes_sent_total",
			"Probe bytes written to the socket."),
		sendErrors: reg.Counter("swiftest_server_send_errors_total",
			"Probe datagram writes that failed (treated as UDP loss)."),
		sendBatches: reg.Counter("swiftest_server_send_batches_total",
			"Batched wire flushes handed to the kernel (one server step's sends each)."),
		batchDatagrams: reg.Histogram("swiftest_server_batch_datagrams",
			"Probe datagrams per batched wire flush.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
		rateClamped: reg.Counter("swiftest_server_rate_clamped_total",
			"Rate requests reduced to fit the server uplink cap."),
		faultsInjected: reg.Counter("swiftest_server_faults_injected_total",
			"Fault-plan actions acted out (dropped datagrams, blackout silences, delayed pongs...)."),
		pings: reg.Counter("swiftest_server_pings_total",
			"Ping requests answered (server-selection probes)."),
		authRejects: reg.Counter("swiftest_server_auth_rejects_total",
			"Session setups refused by lease authentication."),
		pacedMbps: reg.Gauge("swiftest_server_paced_mbps",
			"Aggregate pacing rate across active sessions (Mbps); capped at swiftest_server_uplink_mbps."),
		uplinkMbps: reg.Gauge("swiftest_server_uplink_mbps",
			"Configured egress capacity (Mbps)."),
		resultMbps: reg.Histogram("swiftest_server_result_mbps",
			"Client-reported bandwidth results (Mbps).",
			[]float64{1, 5, 10, 25, 50, 100, 200, 400, 800, 1600}),
	}
}

// updatePacedGauge recomputes the aggregate paced-rate gauge from the live
// session set.
func (s *Server) updatePacedGauge() {
	if s.metrics.pacedMbps == nil {
		return
	}
	var total float64
	for _, sess := range s.order {
		total += wire.MbpsFromKbps(sess.rateKbps)
	}
	s.metrics.pacedMbps.Set(total)
}
