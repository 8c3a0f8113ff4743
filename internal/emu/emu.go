// Package emu emulates a mobile access link for the *real* UDP transport: a
// datagram relay that sits between a Swiftest client and a test server and
// imposes a bottleneck rate, propagation delay, a drop-tail queue, and
// random loss on the downlink probe traffic.
//
// This closes the loop between the virtual-time experiments (package
// linksim) and the wire: the same client/server binaries that run in
// production can be exercised end-to-end under 4G/5G/WiFi-like conditions on
// loopback. Uplink traffic (the client's small control messages) is forwarded
// unshaped, mirroring the asymmetry of real access links whose bottleneck is
// the downlink.
//
//lint:allow walltime real-time relay pacing real sockets; the virtual-time emulator is package linksim
package emu

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes the emulated access link.
type Config struct {
	// Target is the real test server ("host:port"). Required.
	Target string
	// RateMbps is the downlink bottleneck. Required.
	RateMbps float64
	// Delay is the added one-way downlink propagation delay.
	Delay time.Duration
	// LossRate is the probability of dropping each downlink datagram.
	LossRate float64
	// QueueBytes sizes the drop-tail bottleneck queue; zero selects 256 KiB.
	QueueBytes int
	// Seed drives the loss process.
	Seed int64
}

func (c Config) validate() error {
	if c.Target == "" {
		return errors.New("emu: Target is required")
	}
	if c.RateMbps <= 0 {
		return fmt.Errorf("emu: rate %g Mbps must be positive", c.RateMbps)
	}
	if c.LossRate < 0 || c.LossRate >= 1 {
		return fmt.Errorf("emu: loss rate %g out of [0,1)", c.LossRate)
	}
	return nil
}

// Relay is a running link emulator. Clients dial Relay.Addr() instead of the
// real server.
type Relay struct {
	cfg      Config
	listener *net.UDPConn
	target   *net.UDPAddr
	started  time.Time
	closed   atomic.Bool
	wg       sync.WaitGroup

	mu    sync.Mutex
	peers map[string]*peerPipe

	delivered atomic.Int64 // downlink bytes delivered after shaping
	dropped   atomic.Int64 // downlink datagrams dropped (queue or loss)
}

// pipeIdle is how long a pipe may stay silent in both directions before it
// removes itself: a test opens three client sockets (ping, control, data)
// and a relay outlives many tests.
const pipeIdle = 2 * time.Second

// pipeSlots bounds the datagrams a pipe holds between shaping and delivery —
// the bottleneck queue plus what the propagation delay keeps in flight. The
// byte bound, QueueBytes, is the one that models the link; this one only
// caps memory when datagrams are tiny or Delay×rate is huge.
const pipeSlots = 4096

// peerPipe is the per-client state: an upstream socket plus the shaped
// downlink FIFO.
type peerPipe struct {
	clientAddr *net.UDPAddr
	upstream   *net.UDPConn
	queue      chan shaped
	active     atomic.Int64 // latest traffic either way, as an offset from Relay.started
	stop       chan struct{}
	stopOnce   sync.Once
}

// shaped is a downlink datagram with the time it reaches the client, as an
// offset from Relay.started.
type shaped struct {
	pkt []byte
	due time.Duration
}

// NewRelay starts a relay on 127.0.0.1:0 shaping traffic toward cfg.Target.
func NewRelay(cfg Config) (*Relay, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = 256 << 10
	}
	target, err := net.ResolveUDPAddr("udp", cfg.Target)
	if err != nil {
		return nil, fmt.Errorf("emu: resolving target %q: %w", cfg.Target, err)
	}
	ln, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("emu: listening: %w", err)
	}
	r := &Relay{cfg: cfg, listener: ln, target: target, started: time.Now(), peers: map[string]*peerPipe{}}
	r.wg.Add(1)
	go r.uplinkLoop()
	return r, nil
}

// Addr reports the relay's client-facing address.
func (r *Relay) Addr() string { return r.listener.LocalAddr().String() }

// DeliveredBytes reports downlink bytes delivered through the bottleneck.
func (r *Relay) DeliveredBytes() int64 { return r.delivered.Load() }

// DroppedPackets reports downlink datagrams dropped by queue overflow or
// random loss.
func (r *Relay) DroppedPackets() int64 { return r.dropped.Load() }

// Close stops the relay and all per-client pipes.
func (r *Relay) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	err := r.listener.Close()
	r.mu.Lock()
	for _, p := range r.peers {
		p.shutdown()
	}
	r.mu.Unlock()
	r.wg.Wait()
	return err
}

// uplinkLoop forwards client datagrams to the target unshaped, creating the
// per-client downlink pipe on first contact.
func (r *Relay) uplinkLoop() {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, client, err := r.listener.ReadFromUDP(buf)
		if err != nil {
			if r.closed.Load() {
				return
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		pipe, err := r.pipeFor(client)
		if err != nil {
			continue
		}
		if _, err := pipe.upstream.Write(buf[:n]); err != nil && r.closed.Load() {
			return
		}
	}
}

// pipeFor returns the client's pipe, opening it on first contact, and marks
// it active — under r.mu, so retire cannot take an idle pipe that was just
// handed out.
func (r *Relay) pipeFor(client *net.UDPAddr) (*peerPipe, error) {
	key := client.String()
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.peers[key]; ok {
		p.touch(time.Since(r.started))
		return p, nil
	}
	up, err := net.DialUDP("udp", nil, r.target)
	if err != nil {
		return nil, err
	}
	_ = up.SetReadBuffer(4 << 20)
	p := &peerPipe{
		clientAddr: client,
		upstream:   up,
		queue:      make(chan shaped, pipeSlots),
		stop:       make(chan struct{}),
	}
	p.touch(time.Since(r.started))
	r.peers[key] = p
	r.wg.Add(2)
	go r.downlinkShape(p)
	go r.downlinkDeliver(p)
	return p, nil
}

// touch records traffic at offset at, which for a downlink datagram is the
// time it will leave the link; the latest mark stands.
func (p *peerPipe) touch(at time.Duration) {
	for {
		old := p.active.Load()
		if int64(at) <= old || p.active.CompareAndSwap(old, int64(at)) {
			return
		}
	}
}

// idleAt is when the pipe will have been silent for pipeIdle.
func (r *Relay) idleAt(p *peerPipe) time.Time {
	return r.started.Add(time.Duration(p.active.Load()) + pipeIdle)
}

// retire removes the pipe from the relay and shuts it down, so the client's
// next datagram opens a fresh one. With ifIdle it declines, and reports
// false, while the pipe has seen traffic within pipeIdle.
func (r *Relay) retire(p *peerPipe, ifIdle bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ifIdle && time.Now().Before(r.idleAt(p)) {
		return false
	}
	if key := p.clientAddr.String(); r.peers[key] == p {
		delete(r.peers, key)
	}
	p.shutdown()
	return true
}

func (p *peerPipe) shutdown() {
	p.stopOnce.Do(func() {
		close(p.stop)
		p.upstream.Close()
	})
}

// downlinkShape reads server datagrams and gives each its departure time
// from a virtual-finish-time bottleneck: free is when the link will have
// serialised everything accepted so far, so (free − now)·rate is the backlog
// the drop-tail test sees, and a datagram leaves one serialisation time
// after free and arrives Delay later. Random loss comes first. The read
// deadline is the pipe's idle time: a pipe retires itself after pipeIdle of
// silence both ways, or when its upstream socket fails.
func (r *Relay) downlinkShape(p *peerPipe) {
	defer r.wg.Done()
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	bytesPerSec := r.cfg.RateMbps * 1e6 / 8
	var free time.Duration // offset from r.started
	buf := make([]byte, 64<<10)
	for {
		_ = p.upstream.SetReadDeadline(r.idleAt(p))
		n, err := p.upstream.Read(buf)
		if err != nil {
			var ne net.Error
			if r.retire(p, errors.As(err, &ne) && ne.Timeout()) {
				return
			}
			continue
		}
		if r.cfg.LossRate > 0 && rng.Float64() < r.cfg.LossRate {
			r.dropped.Add(1)
			continue
		}
		now := time.Since(r.started)
		free = max(free, now)
		if (free-now).Seconds()*bytesPerSec+float64(n) > float64(r.cfg.QueueBytes) {
			r.dropped.Add(1) // drop-tail: the bottleneck queue is full
			continue
		}
		sent := free + time.Duration(float64(n)/bytesPerSec*float64(time.Second))
		d := shaped{pkt: append([]byte(nil), buf[:n]...), due: sent + r.cfg.Delay}
		select {
		case p.queue <- d:
			free = sent
			p.touch(d.due)
		default:
			r.dropped.Add(1)
		}
	}
}

// downlinkDeliver hands the FIFO's datagrams to the client at their due
// times. One already overdue leaves at once, so a late wake-up is repaid by
// exactly what it delayed and the long-run rate is the configured one.
func (r *Relay) downlinkDeliver(p *peerPipe) {
	defer r.wg.Done()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		var d shaped
		select {
		case <-p.stop:
			return
		case d = <-p.queue:
		}
		if wait := d.due - time.Since(r.started); wait > 0 {
			timer.Reset(wait)
			select {
			case <-p.stop:
				return
			case <-timer.C:
			}
		}
		if _, err := r.listener.WriteToUDP(d.pkt, p.clientAddr); err == nil {
			r.delivered.Add(int64(len(d.pkt)))
		}
	}
}
