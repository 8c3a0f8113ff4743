package transport

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/transport/batchio"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

// identityBase is the fixed epoch the scripted clock starts from: stepped
// servers start here.
var identityBase = time.Unix(1700000000, 0)

// identityScript is one deterministic wheel schedule: a fault plan, a
// session layout and a mid-test rate change, everything keyed off
// identityBase so two runs draw identical fault and budget sequences.
type identityScript struct {
	ticks    int    // advance calls, paceInterval apart
	rateKbps uint32 // initial per-session rate
	rekbps   uint32 // rate set on session 0 halfway through
	sessions int
	plan     *faults.Plan
}

// wireCapture is everything one scripted run produced: the per-session raw
// datagram streams, in arrival order per socket.
type wireCapture struct {
	streams [][][]byte
}

// runScripted steps an unstarted server through the script in the given
// wire mode and captures each session's datagram stream off real sockets.
// The clock is entirely synthetic: the handshakes step at identityBase and
// tick k at identityBase + k·paceInterval, so sequence numbers, fault draws
// and SentNS stamps are pure functions of the script.
func runScripted(t *testing.T, mode WireMode, sc identityScript) wireCapture {
	t.Helper()
	cfg := ServerConfig{UplinkMbps: 100, Wire: mode}
	if sc.plan != nil {
		cfg.Faults = &faults.Binding{Inj: sc.plan.Injector(), Server: 0}
	}
	srv := unstartedServer(t, cfg)

	conns := make([]*net.UDPConn, sc.sessions)
	for i := range conns {
		conn, err := net.DialUDP("udp", nil, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetReadBuffer(4 << 20)
		conns[i] = conn
		stepOpen(t, srv, identityBase, uint64(100+i), conn.LocalAddr().(*net.UDPAddr), sc.rateKbps, 0)
	}

	for k := 1; k <= sc.ticks; k++ {
		var in []batchio.Message
		if sc.rekbps != 0 && k == sc.ticks/2 {
			rs := wire.Rate2{SessionID: 100, RateKbps: sc.rekbps, Seq: 1}
			in = from(conns[0].LocalAddr().(*net.UDPAddr), rs.AppendTo(nil))
		}
		srv.step(identityBase.Add(time.Duration(k)*paceInterval), in)
	}

	capd := wireCapture{streams: make([][][]byte, sc.sessions)}
	for i, conn := range conns {
		capd.streams[i] = drainData(t, conn)
	}
	return capd
}

// handshake opens session id from a handcrafted wire client — raw Setup,
// then raw DataOpen — with both channels on the one socket, so conn receives
// the acks, the paced stream and (when caps asks for them) the Reports.
func handshake(t *testing.T, conn *net.UDPConn, id uint64, rateKbps, caps uint32) {
	t.Helper()
	setup := wire.Setup{SessionID: id, RateKbps: rateKbps, Caps: caps}
	var sack wire.SetupAck
	rawExchange(t, conn, setup.AppendTo(nil), func(pkt []byte) bool {
		return sack.Decode(pkt) == nil && sack.SessionID == id
	})
	do := wire.DataOpen{SessionID: id}
	var doa wire.DataOpenAck
	rawExchange(t, conn, do.AppendTo(nil), func(pkt []byte) bool {
		return doa.Decode(pkt) == nil && doa.SessionID == id
	})
}

// rawExchange retransmits req until a datagram satisfying answered arrives.
func rawExchange(t *testing.T, conn *net.UDPConn, req []byte, answered func(pkt []byte) bool) {
	t.Helper()
	buf := make([]byte, 2048)
	for attempt := 0; attempt < 10; attempt++ {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		for {
			n, err := conn.Read(buf)
			if err != nil {
				break
			}
			if answered(buf[:n]) {
				return
			}
		}
	}
	t.Fatalf("no answer to %x", req[:wire.HeaderLen])
}

// drainData reads every Data2 datagram queued on conn until the socket goes
// quiet, returning the raw bytes in arrival order.
func drainData(t *testing.T, conn *net.UDPConn) [][]byte {
	t.Helper()
	var out [][]byte
	buf := make([]byte, 2048)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		n, err := conn.Read(buf)
		if err != nil {
			return out
		}
		if _, typ, err := wire.PeekVersion(buf[:n]); err == nil && typ == wire.TypeData2 {
			out = append(out, append([]byte(nil), buf[:n]...))
		}
	}
}

// identityPlan exercises every fault kind that touches the pacing path:
// burst loss, a pacing cap, and a blackout window, all keyed on elapsed
// script time.
func identityPlan() *faults.Plan {
	return &faults.Plan{
		Seed: 7,
		Faults: []faults.Fault{
			{Kind: faults.BurstLoss, Server: 0, AtMS: 30, DurationMS: 40, Prob: 0.5},
			{Kind: faults.RateCap, Server: 0, AtMS: 120, DurationMS: 60, CapMbps: 5},
			{Kind: faults.Blackout, Server: 0, AtMS: 220, DurationMS: 40},
		},
	}
}

// TestBatchedFallbackBitIdentity is the refactor's safety property: the
// batched syscall path (sendmmsg + segmentation offload where available) and
// the portable fallback must put byte-identical datagram streams on the
// wire — same headers, same sequence gaps from injected loss, same
// timestamps — given the same scripted schedule. Everything the client
// derives from the stream then matches too.
func TestBatchedFallbackBitIdentity(t *testing.T) {
	sc := identityScript{
		ticks:    60, // 300 ms of scripted pacing
		rateKbps: 20000,
		rekbps:   35000,
		sessions: 2,
		plan:     identityPlan(),
	}
	batched := runScripted(t, WireAuto, sc)
	fallback := runScripted(t, WireFallback, sc)

	for i := range batched.streams {
		a, b := batched.streams[i], fallback.streams[i]
		if len(a) == 0 {
			t.Fatalf("session %d: batched run produced no datagrams", i)
		}
		if len(a) != len(b) {
			t.Fatalf("session %d: batched sent %d datagrams, fallback %d", i, len(a), len(b))
		}
		for j := range a {
			if !bytes.Equal(a[j], b[j]) {
				t.Fatalf("session %d datagram %d differs between batched and fallback paths", i, j)
			}
		}
	}

	// The loss plan must actually have bitten: sequence numbers in the
	// stream should show gaps, proving fault draws ran on both paths.
	seqs := map[uint32]bool{}
	var maxSeq uint32
	for _, pkt := range batched.streams[0] {
		var d wire.Data2
		if err := d.Decode(pkt); err != nil {
			t.Fatal(err)
		}
		seqs[d.Seq] = true
		if d.Seq > maxSeq {
			maxSeq = d.Seq
		}
	}
	if len(seqs) == int(maxSeq) {
		t.Error("no sequence gaps: the burst-loss fault never fired, the script is too tame")
	}
}

// replayProbe feeds a fixed sample series through core.RunContext under virtual
// time, so two identical wire captures produce identical engine results.
type replayProbe struct {
	samples []float64
	i       int
	elapsed time.Duration
	rate    float64
	dataMB  float64
}

func (p *replayProbe) SetRate(mbps float64) error { p.rate = mbps; return nil }

func (p *replayProbe) NextSample() (float64, bool) {
	if p.i >= len(p.samples) {
		return 0, false
	}
	s := p.samples[p.i]
	p.i++
	p.elapsed += SampleInterval
	p.dataMB += s / 8 * SampleInterval.Seconds()
	return s, true
}

func (p *replayProbe) Elapsed() time.Duration { return p.elapsed }
func (p *replayProbe) DataMB() float64        { return p.dataMB }

// samplesFromCapture folds a capture into 50 ms throughput windows keyed on
// the datagrams' scripted SentNS stamps — the client-visible sample series.
func samplesFromCapture(t *testing.T, capd wireCapture) []float64 {
	t.Helper()
	base := uint64(identityBase.UnixNano())
	byWindow := map[int]int{}
	maxWin := 0
	for _, stream := range capd.streams {
		for _, pkt := range stream {
			var d wire.Data2
			if err := d.Decode(pkt); err != nil {
				t.Fatal(err)
			}
			win := int((d.SentNS - base) / uint64(SampleInterval))
			byWindow[win] += len(pkt)
			if win > maxWin {
				maxWin = win
			}
		}
	}
	out := make([]float64, maxWin+1)
	for win, b := range byWindow {
		out[win] = float64(b) * 8 / SampleInterval.Seconds() / 1e6
	}
	return out
}

// TestBatchedFallbackResultIdentity closes the loop from wire bytes to
// engine output: the sample series derived from each path's capture is run
// through core.RunContext, and the Results and trace event streams must be
// reflect.DeepEqual — the refactor is invisible above the socket.
func TestBatchedFallbackResultIdentity(t *testing.T) {
	sc := identityScript{ticks: 120, rateKbps: 20000, sessions: 1, plan: identityPlan()}
	model := gmm.MustNew(gmm.Component{Weight: 1, Mu: 18, Sigma: 3})

	run := func(mode WireMode) (core.Result, []obs.Event) {
		capd := runScripted(t, mode, sc)
		tr := obs.NewTrace(0)
		res, err := core.RunContext(context.Background(), &replayProbe{samples: samplesFromCapture(t, capd)},
			core.Config{Model: model, MaxDuration: 5 * time.Second, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.Events()
	}

	resA, evA := run(WireAuto)
	resB, evB := run(WireFallback)
	if !reflect.DeepEqual(resA, resB) {
		t.Errorf("Results diverge:\nbatched:  %+v\nfallback: %+v", resA, resB)
	}
	if !reflect.DeepEqual(evA, evB) {
		t.Errorf("trace event streams diverge: %d vs %d events", len(evA), len(evB))
	}
	if resA.Bandwidth <= 0 {
		t.Error("replayed run produced no bandwidth estimate")
	}
}

// TestScriptedFaultSequenceStable pins the fault draws themselves: the set
// of surviving sequence numbers under the scripted plan is identical run to
// run — the injector keys on (seed, server, seq), not on wall time or send
// order.
func TestScriptedFaultSequenceStable(t *testing.T) {
	sc := identityScript{ticks: 40, rateKbps: 16000, sessions: 1, plan: identityPlan()}
	want := ""
	for round := 0; round < 3; round++ {
		capd := runScripted(t, WireAuto, sc)
		got := ""
		for _, pkt := range capd.streams[0] {
			var d wire.Data2
			if err := d.Decode(pkt); err != nil {
				t.Fatal(err)
			}
			got += fmt.Sprintf("%d,", d.Seq)
		}
		if round == 0 {
			want = got
		} else if got != want {
			t.Fatalf("round %d: surviving sequence set changed:\n%s\nvs\n%s", round, got, want)
		}
	}
}
