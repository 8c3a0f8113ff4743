package transport

import (
	"net"
	"testing"
	"time"
)

func TestBufPoolGetReturnsZeroedSizedBuffer(t *testing.T) {
	p := newBufPool(256, 2)
	buf := p.get()
	if len(buf.b) != 256 {
		t.Fatalf("len = %d, want 256", len(buf.b))
	}
	for i, c := range buf.b {
		if c != 0 {
			t.Fatalf("byte %d = %d, want 0", i, c)
		}
	}
	if got := buf.refs.Load(); got != 1 {
		t.Fatalf("fresh buffer refs = %d, want 1", got)
	}
}

func TestBufPoolRefcountedReuse(t *testing.T) {
	p := newBufPool(64, 1)
	buf := p.get()
	buf.retain() // two holders now
	buf.release()
	if got := p.get(); got == buf {
		t.Fatal("buffer returned to the pool while a reference was still held")
	}
	buf.release() // last reference
	// The freelist is LIFO: the next get must hand the same buffer back.
	for i := 0; i < 2; i++ {
		if got := p.get(); got == buf {
			if got.refs.Load() != 1 {
				t.Fatalf("recycled buffer refs = %d, want 1", got.refs.Load())
			}
			return
		}
	}
	t.Fatal("released buffer never came back from the pool")
}

func TestBufPoolOverReleasePanics(t *testing.T) {
	p := newBufPool(16, 1)
	buf := p.get()
	buf.release()
	defer func() {
		if recover() == nil {
			t.Error("releasing an already-released buffer did not panic")
		}
	}()
	buf.release()
}

func TestBufPoolGrowsBeyondPrealloc(t *testing.T) {
	p := newBufPool(16, 1)
	a, b := p.get(), p.get()
	if a == b {
		t.Fatal("pool handed out the same buffer twice")
	}
	if got := p.grown.Load(); got != 1 {
		t.Errorf("grown = %d, want 1 (one get past the prealloc)", got)
	}
	a.release()
	b.release()
	if got := p.grown.Load(); got != 1 {
		t.Errorf("grown after releases = %d, want 1", got)
	}
}

// addWheelSession registers a synthetic session directly on the server, the
// unit-level counterpart of a Setup → DataOpen handshake with both channels
// on peer.
func addWheelSession(srv *Server, id uint64, peer *net.UDPAddr, rateKbps uint32) *session {
	sess := &session{id: id, ctrlPeer: peer}
	sess.peer.Store(peer)
	sess.rateKbps.Store(rateKbps)
	sess.lastSeen.Store(time.Now().UnixNano())
	srv.mu.Lock()
	srv.byID[id] = sess
	srv.order = append(srv.order, sess)
	srv.mu.Unlock()
	srv.metrics.sessionsActive.Inc()
	return sess
}

// TestWheelAdvanceZeroAllocs is the hot-path budget the swiftvet hotpath
// annotations gate between benchmark runs: once the scratch slices and the
// buffer pool are warm, a wheel tick — budget, assemble, batch send —
// performs zero heap allocations per packet on both syscall paths.
func TestWheelAdvanceZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode WireMode
	}{
		{"batched", WireAuto},
		{"fallback", WireFallback},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer sink.Close()
			srv, err := newServer("127.0.0.1:0",
				ServerConfig{UplinkMbps: 100, Wire: tc.mode, startedAt: identityBase}, false)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			_ = srv.conn.SetWriteBuffer(8 << 20)
			addWheelSession(srv, 1, sink.LocalAddr().(*net.UDPAddr), 50000)

			now := identityBase
			tick := func() {
				now = now.Add(paceInterval)
				srv.advance(now)
			}
			for i := 0; i < 50; i++ {
				tick() // warm the scratch slices and the buffer pool
			}
			if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
				t.Errorf("advance allocates %.2f per tick (~26 datagrams), want 0", allocs)
			}
		})
	}
}
