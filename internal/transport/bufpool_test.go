package transport

import (
	"net"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/transport/batchio"
	"github.com/mobilebandwidth/swiftest/internal/wire"
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

// TestWheelAdvanceZeroAllocs is the hot-path budget the swiftvet hotpath
// annotations gate between benchmark runs: once the scratch slices and the
// buffer pool are warm, a step — a wheel tick's budget, assembly and batch
// send, alone or with one inbound Rate2 or Ping answered in the same flush —
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
			srv := unstartedServer(t, ServerConfig{UplinkMbps: 100, Wire: tc.mode})
			_ = srv.conn.SetWriteBuffer(8 << 20)
			peer := sink.LocalAddr().(*net.UDPAddr)
			now := identityBase
			stepOpen(t, srv, now, 1, peer, 50000, 0)

			rate := wire.Rate2{SessionID: 1, RateKbps: 50000}
			ping := wire.Ping{}
			scratch := make([]byte, 0, 64)
			in := make([]batchio.Message, 1)
			in[0].Addr = peer
			steps := []struct {
				name  string
				frame func() []byte // the one inbound datagram; nil steps with none
			}{
				{"tick", nil},
				{"tick+Rate2", func() []byte { rate.Seq++; return rate.AppendTo(scratch[:0]) }},
				{"tick+Ping", func() []byte { ping.Seq++; return ping.AppendTo(scratch[:0]) }},
			}
			for _, st := range steps {
				step := func() {
					now = now.Add(paceInterval)
					if st.frame == nil {
						srv.step(now, nil)
						return
					}
					in[0].Buf = st.frame()
					in[0].N = len(in[0].Buf)
					srv.step(now, in)
				}
				for i := 0; i < 50; i++ {
					step() // warm the scratch slices and the buffer pool
				}
				if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
					t.Errorf("%s step allocates %.2f (~26 datagrams), want 0", st.name, allocs)
				}
			}
		})
	}
}
