// Wire hot-path benchmark: how fast the pacing wheel pushes probe datagrams
// through each syscall path, and what a tick costs per session.
// scripts/wire_smoke.sh gates the batched-vs-fallback ns/datagram ratio at 64
// sessions (≥3× with segmentation offload); zero allocations per tick is
// TestWheelAdvanceZeroAllocs.
package transport

import (
	"net"
	"strconv"
	"testing"
)

// wheelBench is one scripted pacing-wheel instance: an unstarted server, a
// sink socket, and n sessions all pacing at rateKbps. tick() advances the
// scripted clock exactly one paceInterval.
type wheelBench struct {
	srv  *Server
	sink *net.UDPConn
	tick func()
}

func newWheelBench(tb testing.TB, mode WireMode, sessions int, rateKbps uint32) *wheelBench {
	tb.Helper()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	srv := unstartedServer(tb, ServerConfig{UplinkMbps: 100 * float64(sessions), Wire: mode})
	_ = srv.conn.SetWriteBuffer(8 << 20)
	peer := sink.LocalAddr().(*net.UDPAddr)
	now := identityBase
	for i := 0; i < sessions; i++ {
		stepOpen(tb, srv, now, uint64(i+1), peer, rateKbps, 0)
	}
	w := &wheelBench{srv: srv, sink: sink}
	w.tick = func() {
		now = now.Add(paceInterval)
		srv.step(now, nil)
	}
	tb.Cleanup(func() { sink.Close() })
	return w
}

// datagrams reports how many probe datagrams the wheel has put on the wire.
func (w *wheelBench) datagrams() int64 { return w.srv.BytesSent() / DatagramSize }

// BenchmarkPacingWheel measures one wheel tick end to end — budget,
// assemble, batched send — across syscall paths and session counts. Each
// session paces 20 Mbps, ~10 datagrams per 5 ms tick.
func BenchmarkPacingWheel(b *testing.B) {
	for _, mode := range []struct {
		name string
		mode WireMode
	}{{"batched", WireAuto}, {"fallback", WireFallback}} {
		for _, sessions := range []int{1, 64} {
			b.Run(mode.name+"-"+strconv.Itoa(sessions), func(b *testing.B) {
				w := newWheelBench(b, mode.mode, sessions, 20000)
				w.tick() // first tick only arms lastTick
				w.tick() // warm scratch and pool
				start := w.datagrams()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.tick()
				}
				b.StopTimer()
				dg := w.datagrams() - start
				// 1 when the server negotiated UDP segmentation offload:
				// without it the batched path still coalesces syscalls via
				// sendmmsg, but the ≥3× target applies to the offloaded path.
				gso := 0.0
				if w.srv.gso {
					gso = 1
				}
				b.ReportMetric(gso, "gso")
				if dg > 0 {
					b.ReportMetric(float64(dg)/float64(b.N), "datagrams/tick")
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(dg), "ns/datagram")
				}
			})
		}
	}
}
