package transport

import (
	"net"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/transport/batchio"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// The pacing wheel is the server's single pacing clock: one tick advances
// every active session. Each tick computes every session's byte budget from
// the step's one clock reading, assembles the due datagrams into pooled
// super-buffers, and leaves them in the step's outbox for its batched flush
// — so the syscall count per tick is O(batches), not
// O(sessions × datagrams).

// segsPerBuf is the number of DatagramSize segments a pooled super-buffer
// holds. It also bounds the datagrams one wire message may carry when UDP
// segmentation offload is active; 50 × 1200 stays under the 65507-byte UDP
// payload ceiling. The buffer geometry is identical on the fallback path —
// the two paths differ only in how many kernel crossings the same bytes
// cost.
const segsPerBuf = 50

// stepBufs bounds the super-buffers a step holds before it sends them: a
// step that owes more (a late wake-up at a high rate owes two ticks of
// traffic) flushes each full set as it is assembled, so the pool holds at
// most stepBufs buffers however late a step runs. Under segmentation
// offload stepBufs messages are one sendmmsg; on the fallback path the
// flush costs the same ⌈n/BatchSize⌉ crossings either way.
const stepBufs = batchio.BatchSize

// advance runs one wheel tick at the given instant: reap idle sessions,
// then budget every other one and assemble its due datagrams and Reports
// into the outbox, in registration order so the wire stream is reproducible
// under a scripted clock.
//
// swiftvet:hotpath
func (s *Server) advance(now time.Time) {
	at := now.Sub(s.started) // the tick's single fault-plan time base

	// Backwards, so retiring one leaves the unvisited prefix in place.
	for i := len(s.order) - 1; i >= 0; i-- {
		if sess := s.order[i]; now.Sub(sess.lastSeen) > s.cfg.IdleTimeout {
			s.retire(sess)
			s.metrics.sessionsReaped.Inc()
			s.logf("session idle timeout", "session_id", sess.id) //lint:allow hotpath reap is a cold once-per-session exit
		}
	}

	blackout := s.cfg.Faults.Blackout(at)
	capMbps, capped := s.cfg.Faults.CapMbps(at)

	for _, sess := range s.order {
		if sess.peer == nil {
			// Session still waiting for its DataOpen: nowhere to pace to
			// yet, and no budget accrues until the data channel binds.
			sess.carryBytes = 0
			continue
		}
		rate := wire.MbpsFromKbps(sess.rateKbps)
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
			// First tick after the data channel binds: start the budget
			// clock here so elapsed time is always tick-observed.
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
		// self-corrects against late wake-ups so the client's 50 ms samples
		// stay smooth.
		sess.carryBytes += rate * 1e6 * elapsed / 8
		// Bound the burst after a long stall to two ticks of traffic.
		if maxCarry := rate * 1e6 * 2 * paceInterval.Seconds() / 8; sess.carryBytes > maxCarry {
			sess.carryBytes = maxCarry
		}
		s.assemble(sess, at, uint64(now.UnixNano()))
		if sess.caps&wire.CapReports != 0 {
			if sess.lastReport.IsZero() || now.Sub(sess.lastReport) >= reportInterval {
				sess.lastReport = now
				sess.reportSeq++
				r := wire.Report{
					SessionID:     sess.id,
					Seq:           sess.reportSeq,
					SentBytes:     sess.sentBytes,
					SentDatagrams: sess.sentDatagrams,
				}
				s.reply(r.AppendTo(s.ctl), sess.ctrlPeer)
			}
		}
	}
}

// reportInterval is the cadence of per-interval server Reports on sessions
// with CapReports active: two client sample windows.
const reportInterval = 100 * time.Millisecond

// assemble drains one session's byte budget into pooled super-buffers:
// whole DatagramSize segments, header-stamped in place, sliced into wire
// messages — one message per buffer chunk under segmentation offload, one
// per datagram on the fallback path. Fault draws key on (elapsed, seq), so
// a scripted clock replays the same fault sequence.
//
// swiftvet:hotpath
func (s *Server) assemble(sess *session, at time.Duration, sentNS uint64) {
	peer := sess.peer
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
			if len(s.bufs) >= stepBufs {
				s.flush()
			}
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

// flush hands the step's outbox to the batched sender and settles the
// books: sent probe datagrams feed the byte/datagram counters, unsent
// messages (a partially failed batch) feed send-errors — nothing is dropped
// silently. All buffer references taken since the last flush are released
// here; buffers return to the pool once their last message is accounted.
//
// swiftvet:hotpath
func (s *Server) flush() {
	if len(s.msgs) == 0 {
		return
	}
	sent, err := s.bio.SendBatch(s.msgs)
	s.metrics.sendBatches.Inc()
	var okDatagrams, failed int
	for i := range s.msgs {
		n := len(s.msgs[i].Buf) / DatagramSize // 0 for a control frame
		if i < sent {
			okDatagrams += n
		} else {
			failed += max(n, 1)
		}
		if buf := s.msgBufs[i]; buf != nil {
			buf.release()
		}
	}
	for _, buf := range s.bufs {
		buf.release()
	}
	okBytes := okDatagrams * DatagramSize
	s.bytesSent.Add(int64(okBytes))
	s.metrics.datagramsSent.Add(uint64(okDatagrams))
	s.metrics.bytesSent.Add(uint64(okBytes))
	s.metrics.batchDatagrams.Observe(float64(okDatagrams))
	if err != nil && failed > 0 && !s.closed.Load() {
		// Transient send failure (e.g. buffer full): count every datagram
		// the batch left unsent and move on, exactly like a lossy link.
		s.metrics.sendErrors.Add(uint64(failed))
	}
	clear(s.msgs) // drop the references to inbound addresses and delayed pongs
	s.msgs = s.msgs[:0]
	s.msgBufs = s.msgBufs[:0]
	s.bufs = s.bufs[:0]
	s.ctl = s.ctl[:0]
}

// retire removes a session — on a client Bye, an idle reap or Close. The
// caller does the path-specific accounting (finished vs reaped).
func (s *Server) retire(sess *session) {
	delete(s.byID, sess.id)
	delete(s.hsAttempts, sess.id)
	for i, o := range s.order {
		if o == sess {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.live.Add(-1)
	s.updatePacedGauge()
	s.metrics.sessionsActive.Dec()
}
