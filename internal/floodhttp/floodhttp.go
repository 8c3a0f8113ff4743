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
// 20-group 5-low/2-high trimming rule (estimate.BTSAppEstimate). Its flow
// counts and default duration are the estimate.BTSApp* constants that
// baseline.BTSApp also runs with.
//
//lint:allow walltime deployment-side flooding over real HTTP/TCP; the virtual-time counterpart is baseline.BTSApp
package floodhttp

import (
	"context"
	"errors"
	"fmt"
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

// sampleInterval is the goodput sampling period (§2: 50 ms).
const sampleInterval = 50 * time.Millisecond

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
	// Duration is the fixed flooding time; zero selects
	// estimate.BTSAppDuration (§2: 10 s).
	Duration time.Duration
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
		dur = estimate.BTSAppDuration
	}
	ladder := estimate.BTSAppScaleLadder()

	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()

	var rx atomic.Int64
	var wg sync.WaitGroup
	conns := 0
	spawn := func() {
		url := cfg.URLs[conns%len(cfg.URLs)] + "/chunk"
		conns++
		wg.Add(1)
		go func() {
			defer wg.Done()
			floodWorker(ctx, url, &rx)
		}()
	}
	for i := 0; i < estimate.BTSAppInitialFlows; i++ {
		spawn()
	}

	start := time.Now()
	var samples []float64
	lastBytes := int64(0)
	lastAt := start
	nextRung := 0
	ticker := time.NewTicker(sampleInterval)
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
			if conns < estimate.BTSAppMaxFlows {
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
