package transport

import (
	"net"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/transport/batchio"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// The pacing wheel is the server's single pacing clock: one goroutine and
// one ticker advance every active session, replacing the
// per-session time.NewTicker goroutines the server used to spawn. Each tick
// the wheel reads the clock once, computes every session's byte budget with
// the same carry/clamp rules the per-session pacers used, assembles the due
// datagrams into pooled super-buffers, and hands the whole set to the
// batched sender — so the syscall count per tick is O(batches), not
// O(sessions × datagrams).
//
// Pacing state (seq, carryBytes, lastTick) lives on the session and is
// touched only by the wheel goroutine after the session is published, so
// none of it needs atomics.

// segsPerBuf is the number of DatagramSize segments a pooled super-buffer
// holds. It also bounds the datagrams one wire message may carry when UDP
// segmentation offload is active; 50 × 1200 stays under the 65507-byte UDP
// payload ceiling. The buffer geometry is identical on the fallback path —
// the two paths differ only in how many kernel crossings the same bytes
// cost.
const segsPerBuf = 50

// wheelLoop runs the pacing wheel until Close. It performs the pacing path's
// only wall-clock read: one time.Now per tick, threaded through advance so
// fault windows, idle checks and datagram timestamps all share one instant.
func (s *Server) wheelLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(paceInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.wheelStop:
			return
		case <-ticker.C:
		}
		s.advance(time.Now())
	}
}

// advance runs one wheel tick at the given instant: budget every active
// session, assemble due datagrams, flush them in batches. It is exported to
// tests (same package) so deterministic schedules can drive the wheel with
// scripted clocks through both syscall paths.
//
// swiftvet:hotpath
func (s *Server) advance(now time.Time) {
	at := now.Sub(s.started) // the tick's single fault-plan time base

	// Snapshot the session ring in registration order: deterministic
	// iteration keeps the wire stream reproducible under a scripted clock.
	s.active = s.active[:0]
	s.mu.Lock()
	s.active = append(s.active, s.order...)
	s.mu.Unlock()

	blackout := s.cfg.Faults.Blackout(at)
	capMbps, capped := s.cfg.Faults.CapMbps(at)

	for _, sess := range s.active {
		if sess.retired.Load() {
			continue
		}
		if now.UnixNano()-sess.lastSeen.Load() > int64(s.cfg.IdleTimeout) {
			if s.retire(sess) {
				s.metrics.sessionsReaped.Inc()
				s.logf("session idle timeout", "session_id", sess.id) //lint:allow hotpath reap is a cold once-per-session exit
			}
			continue
		}
		peer := sess.peer.Load()
		if peer == nil {
			// Session still waiting for its DataOpen: nowhere to pace to
			// yet, and no budget accrues until the data channel binds.
			sess.carryBytes = 0
			continue
		}
		rate := wire.MbpsFromKbps(sess.rateKbps.Load())
		if blackout {
			// A blacked-out server paces nothing — the client sees the
			// session fall silent and fails over.
			sess.carryBytes = 0
			s.metrics.faultsInjected.Inc()
			continue
		}
		if capped && rate > capMbps {
			rate = capMbps
			s.metrics.faultsInjected.Inc()
		}
		if sess.lastTick.IsZero() {
			// First tick after registration: start the budget clock here so
			// elapsed time is always wheel-observed, never wall-read twice.
			sess.lastTick = now
			continue
		}
		elapsed := now.Sub(sess.lastTick).Seconds()
		sess.lastTick = now
		if rate <= 0 {
			sess.carryBytes = 0
			continue
		}
		// Budget by measured elapsed time, not the nominal tick: the wheel
		// self-corrects against ticker jitter and scheduling delay so the
		// client's 50 ms samples stay smooth.
		sess.carryBytes += rate * 1e6 * elapsed / 8
		// Bound the burst after a long stall to two ticks of traffic.
		if maxCarry := rate * 1e6 * 2 * paceInterval.Seconds() / 8; sess.carryBytes > maxCarry {
			sess.carryBytes = maxCarry
		}
		s.assemble(sess, peer, at, uint64(now.UnixNano()))
		if sess.caps&wire.CapReports != 0 {
			if sess.lastReport.IsZero() || now.Sub(sess.lastReport) >= reportInterval {
				sess.lastReport = now
				sess.reportSeq++
				s.appendReport(sess)
			}
		}
	}
	s.flush()
}

// reportInterval is the cadence of per-interval server Reports on sessions
// with CapReports active: two client sample windows, so every
// loss computation sees fresh cumulative counters.
const reportInterval = 100 * time.Millisecond

// appendReport queues one control-channel Report carrying the session's
// cumulative paced traffic; it rides the tick's normal batched flush.
//
// swiftvet:hotpath
func (s *Server) appendReport(sess *session) {
	buf := s.pool.get()
	s.bufs = append(s.bufs, buf)
	r := wire.Report{
		SessionID:     sess.id,
		Seq:           sess.reportSeq,
		SentBytes:     sess.sentBytes,
		SentDatagrams: sess.sentDatagrams,
	}
	s.appendMsg(buf, r.AppendTo(buf.b[:0]), sess.ctrlPeer)
}

// assemble drains one session's byte budget into pooled super-buffers:
// whole DatagramSize segments, header-stamped in place, sliced into wire
// messages — one message per buffer chunk under segmentation offload, one
// per datagram on the fallback path. Fault draws key on the same
// (elapsed, seq) pair the per-session pacers used, so fault sequences are
// byte-identical across the refactor.
//
// swiftvet:hotpath
func (s *Server) assemble(sess *session, peer *net.UDPAddr, at time.Duration, sentNS uint64) {
	var buf *pktBuf
	used := 0   // segments stamped into buf
	msgLow := 0 // first unpackaged segment in buf
	d := wire.Data2{SessionID: sess.id, SentNS: sentNS}

	for sess.carryBytes >= DatagramSize {
		sess.carryBytes -= DatagramSize
		sess.seq++
		if s.cfg.Faults.DropData(at, uint64(sess.seq)) {
			// Burst loss: the datagram is paced but never hits the wire.
			s.metrics.faultsInjected.Inc()
			continue
		}
		if buf == nil {
			buf = s.pool.get()
			s.bufs = append(s.bufs, buf)
			used, msgLow = 0, 0
		}
		d.Seq = sess.seq
		d.EncodeHeader(buf.b[used*DatagramSize:])
		used++
		sess.sentBytes += DatagramSize
		sess.sentDatagrams++
		if !s.gso {
			// One message per datagram; identical bytes, more crossings.
			s.appendMsg(buf, buf.b[(used-1)*DatagramSize:used*DatagramSize], peer)
			msgLow = used
		}
		if used == segsPerBuf {
			if s.gso && used > msgLow {
				s.appendMsg(buf, buf.b[msgLow*DatagramSize:used*DatagramSize], peer)
			}
			buf = nil
		}
	}
	if buf != nil && s.gso && used > msgLow {
		s.appendMsg(buf, buf.b[msgLow*DatagramSize:used*DatagramSize], peer)
	}
}

// appendMsg packages one wire message aliasing a chunk of buf and takes a
// reference on it for the in-flight message.
//
// swiftvet:hotpath
func (s *Server) appendMsg(buf *pktBuf, chunk []byte, addr *net.UDPAddr) {
	buf.retain()
	s.msgs = append(s.msgs, batchio.Message{Buf: chunk, Addr: addr})
	s.msgBufs = append(s.msgBufs, buf)
}

// flush hands the tick's assembled messages to the batched sender and
// settles the books: sent messages feed the byte/datagram counters, unsent
// ones (a partially failed batch) feed send-errors — nothing is dropped
// silently. All buffer references taken during assembly are released here;
// buffers return to the pool once their last message is accounted.
//
// swiftvet:hotpath
func (s *Server) flush() {
	if len(s.msgs) == 0 {
		return
	}
	sent, err := s.bio.SendBatch(s.msgs)
	s.metrics.sendBatches.Inc()
	var okBytes, okDatagrams, failedDatagrams int
	for i := range s.msgs {
		n := len(s.msgs[i].Buf) / DatagramSize
		if i < sent {
			okBytes += len(s.msgs[i].Buf)
			okDatagrams += n
		} else {
			failedDatagrams += n
		}
		s.msgBufs[i].release()
	}
	for _, buf := range s.bufs {
		buf.release()
	}
	s.bytesSent.Add(int64(okBytes))
	s.metrics.datagramsSent.Add(uint64(okDatagrams))
	s.metrics.bytesSent.Add(uint64(okBytes))
	s.metrics.batchDatagrams.Observe(float64(okDatagrams))
	if err != nil && failedDatagrams > 0 && !s.closed.Load() {
		// Transient send failure (e.g. buffer full): count every datagram
		// the batch left unsent and move on, exactly like a lossy link.
		s.metrics.sendErrors.Add(uint64(failedDatagrams))
	}
	s.msgs = s.msgs[:0]
	s.msgBufs = s.msgBufs[:0]
	s.bufs = s.bufs[:0]
}

// retire removes a session from the wheel exactly once, whichever path gets
// there first — client Bye, idle reap, blackout-driven client teardown, or
// server Close. It reports whether this call did the retirement, so the
// caller owns the path-specific accounting (finished vs reaped) without
// double counting.
func (s *Server) retire(sess *session) bool {
	if sess.retired.Swap(true) {
		return false
	}
	s.mu.Lock()
	delete(s.byID, sess.id)
	delete(s.hsAttempts, sess.id)
	for i, o := range s.order {
		if o == sess {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.updatePacedGaugeLocked()
	s.mu.Unlock()
	s.metrics.sessionsActive.Dec()
	return true
}
