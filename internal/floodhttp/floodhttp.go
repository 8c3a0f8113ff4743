// Package floodhttp is a deployable implementation of the probing-by-flooding
// BTS architecture of §2 over real HTTP/TCP — the production counterpart of
// the virtual-time baseline.BTSApp. It exists so the repository contains a
// complete, working Speedtest-class system to compare Swiftest against on
// real networks, not only on the emulator.
//
// The server exposes:
//
//	GET /chunk?bytes=N   → N pseudorandom bytes (default 25 MiB), uncompressible
//	GET /ping            → empty 204 for HTTP-level latency probes
//
// The client floods for a fixed duration over parallel HTTP connections,
// samples aggregate goodput every 50 ms, progressively adds connections when
// samples cross the Speedtest-style threshold ladder, and estimates with the
// 20-group 5-low/2-high trimming rule (estimate.BTSAppEstimate).
//
//lint:allow walltime deployment-side flooding over real HTTP/TCP; the virtual-time counterpart is baseline.BTSApp
package floodhttp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/estimate"
)

// DefaultChunkBytes is the per-request download size (25 MiB, the fast.com /
// Speedtest class of object size).
const DefaultChunkBytes = 25 << 20

// maxChunkBytes bounds client-requested chunk sizes.
const maxChunkBytes = 256 << 20

// Server is a flooding test server.
type Server struct {
	http     *http.Server
	listener net.Listener
	sent     atomic.Int64
	wg       sync.WaitGroup
}

// NewServer starts a flooding server on addr (e.g. "127.0.0.1:0").
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("floodhttp: listening on %q: %w", addr, err)
	}
	s := &Server{listener: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /chunk", s.handleChunk)
	mux.HandleFunc("GET /ping", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	s.http = &http.Server{Handler: mux}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

// Addr reports the server's bound address ("host:port").
func (s *Server) Addr() string { return s.listener.Addr().String() }

// BytesSent reports cumulative payload bytes served.
func (s *Server) BytesSent() int64 { return s.sent.Load() }

// Close stops the server.
func (s *Server) Close() error {
	err := s.http.Close()
	s.wg.Wait()
	return err
}

// handleChunk streams pseudorandom (uncompressible) bytes.
func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	n := int64(DefaultChunkBytes)
	if q := r.URL.Query().Get("bytes"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v <= 0 || v > maxChunkBytes {
			http.Error(w, "bad bytes parameter", http.StatusBadRequest)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	w.Header().Set("Cache-Control", "no-store")

	// A per-request PRNG stream: cheap, uncompressible, no allocation of n.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	buf := make([]byte, 64<<10)
	remaining := n
	for remaining > 0 {
		chunk := int64(len(buf))
		if remaining < chunk {
			chunk = remaining
		}
		rng.Read(buf[:chunk])
		written, err := w.Write(buf[:chunk])
		s.sent.Add(int64(written))
		if err != nil {
			return // client went away (normal at test end)
		}
		remaining -= chunk
	}
}

// ClientConfig configures a flooding test.
type ClientConfig struct {
	// URLs are the test servers' base URLs (e.g. "http://host:port").
	// Required. Additional connections rotate across them, mirroring §2's
	// "new HTTP connections to other nearby test servers".
	URLs []string
	// Duration is the fixed flooding time; zero selects 10 s (§2).
	Duration time.Duration
	// InitialConns is the number of connections opened at start; zero
	// selects 4.
	InitialConns int
	// MaxConns bounds parallel connections; zero selects 8.
	MaxConns int
	// ScaleThresholds is the Mbps ladder that adds connections; nil selects
	// estimate.BTSAppScaleLadder.
	ScaleThresholds []float64
	// ChunkBytes is the per-request download size; zero selects 25 MiB.
	ChunkBytes int64
	// SampleInterval is the goodput sampling period; zero selects 50 ms.
	SampleInterval time.Duration
}

// Report is the outcome of one flooding test.
type Report struct {
	ResultMbps float64
	Duration   time.Duration
	DataMB     float64
	Samples    []float64
	Conns      int
}

// RunTest floods the configured servers and estimates the access bandwidth.
func RunTest(cfg ClientConfig) (Report, error) {
	if len(cfg.URLs) == 0 {
		return Report{}, errors.New("floodhttp: no server URLs")
	}
	dur := cfg.Duration
	if dur <= 0 {
		dur = 10 * time.Second
	}
	initial := cfg.InitialConns
	if initial <= 0 {
		initial = 4
	}
	maxConns := cfg.MaxConns
	if maxConns <= 0 {
		maxConns = 8
	}
	if initial > maxConns {
		initial = maxConns
	}
	ladder := cfg.ScaleThresholds
	if ladder == nil {
		ladder = estimate.BTSAppScaleLadder()
	}
	chunk := cfg.ChunkBytes
	if chunk <= 0 {
		chunk = DefaultChunkBytes
	}
	interval := cfg.SampleInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}

	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()

	var rx atomic.Int64
	var wg sync.WaitGroup
	conns := 0
	spawn := func() {
		url := fmt.Sprintf("%s/chunk?bytes=%d", cfg.URLs[conns%len(cfg.URLs)], chunk)
		conns++
		wg.Add(1)
		go func() {
			defer wg.Done()
			floodWorker(ctx, url, &rx)
		}()
	}
	for i := 0; i < initial; i++ {
		spawn()
	}

	start := time.Now()
	var samples []float64
	lastBytes := int64(0)
	lastAt := start
	nextRung := 0
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for time.Since(start) < dur {
		<-ticker.C
		now := time.Now()
		cur := rx.Load()
		elapsed := now.Sub(lastAt).Seconds()
		if elapsed <= 0 {
			continue
		}
		sample := float64(cur-lastBytes) * 8 / elapsed / 1e6
		samples = append(samples, sample)
		lastBytes, lastAt = cur, now

		for nextRung < len(ladder) && sample >= ladder[nextRung] {
			if conns < maxConns {
				spawn()
			}
			nextRung++
		}
	}
	cancel()
	wg.Wait()

	if len(samples) == 0 {
		return Report{}, errors.New("floodhttp: no samples collected")
	}
	return Report{
		ResultMbps: estimate.BTSAppEstimate(samples),
		Duration:   time.Since(start),
		DataMB:     float64(rx.Load()) / 1e6,
		Samples:    samples,
		Conns:      conns,
	}, nil
}

// floodWorker downloads chunks in a loop until the context ends, adding each
// read to the shared byte counter.
func floodWorker(ctx context.Context, url string, rx *atomic.Int64) {
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	buf := make([]byte, 64<<10)
	for ctx.Err() == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// Transient connection failure: brief backoff and retry.
			select {
			case <-ctx.Done():
				return
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		for {
			n, err := resp.Body.Read(buf)
			rx.Add(int64(n))
			if err != nil {
				break // EOF (chunk done) or cancellation
			}
		}
		resp.Body.Close()
	}
}

// PingHTTP measures HTTP-level request latency to a server's /ping endpoint.
func PingHTTP(baseURL string, timeout time.Duration) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/ping", nil)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("floodhttp: ping %s: %w", baseURL, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return 0, fmt.Errorf("floodhttp: ping %s: status %d", baseURL, resp.StatusCode)
	}
	return time.Since(start), nil
}
