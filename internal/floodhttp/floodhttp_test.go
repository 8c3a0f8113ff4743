package floodhttp

import (
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/estimate"
)

func startServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestChunkSizes(t *testing.T) {
	s := startServer(t)
	base := "http://" + s.Addr()
	for _, n := range []int{1, 1000, 1 << 20} {
		resp, err := http.Get(fmt.Sprintf("%s/chunk?bytes=%d", base, n))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(body) != n {
			t.Errorf("bytes=%d returned %d bytes", n, len(body))
		}
	}
	if s.BytesSent() == 0 {
		t.Error("no bytes accounted")
	}
}

func TestChunkRejectsBadSizes(t *testing.T) {
	s := startServer(t)
	base := "http://" + s.Addr()
	for _, q := range []string{"bytes=0", "bytes=-5", "bytes=notanumber", "bytes=999999999999"} {
		resp, err := http.Get(base + "/chunk?" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestRunTestOnLoopback floods a local server for a short window: the
// full §2 pipeline — parallel connections, 50 ms samples, connection
// scale-up, trimmed estimation — over real TCP.
func TestRunTestOnLoopback(t *testing.T) {
	s := startServer(t)
	rep, err := RunTest(ClientConfig{
		URLs:     []string{"http://" + s.Addr()},
		Duration: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultMbps < 50 {
		t.Errorf("loopback flooding measured only %.1f Mbps", rep.ResultMbps)
	}
	if len(rep.Samples) < 20 {
		t.Errorf("samples = %d, want ≈30 over 1.5 s", len(rep.Samples))
	}
	if rep.Conns < estimate.BTSAppInitialFlows {
		t.Errorf("connections = %d, want ≥%d (initial parallelism)", rep.Conns, estimate.BTSAppInitialFlows)
	}
	if rep.DataMB <= 0 {
		t.Error("no data accounted")
	}
	t.Logf("loopback flood: %.0f Mbps, %.0f MB, %d conns", rep.ResultMbps, rep.DataMB, rep.Conns)
}

// TestRunTestScaleUp: a loopback flood crosses every rung of the ladder up
// to 400 Mbit/s, so the client opens connections up to the published
// maximum and no further.
func TestRunTestScaleUp(t *testing.T) {
	s := startServer(t)
	rep, err := RunTest(ClientConfig{
		URLs:     []string{"http://" + s.Addr()},
		Duration: 800 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conns != estimate.BTSAppMaxFlows {
		t.Errorf("connections = %d, want scale-up to %d", rep.Conns, estimate.BTSAppMaxFlows)
	}
}

func TestRunTestValidation(t *testing.T) {
	if _, err := RunTest(ClientConfig{}); err == nil {
		t.Error("no URLs accepted")
	}
}

func TestRunTestSurvivesDeadServer(t *testing.T) {
	// All requests fail: the test must still terminate at its duration and
	// report an error or a zero result, not hang.
	start := time.Now()
	rep, err := RunTest(ClientConfig{
		URLs:     []string{"http://127.0.0.1:1"},
		Duration: 700 * time.Millisecond,
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("test hung for %v", elapsed)
	}
	if err == nil && rep.ResultMbps > 0 {
		t.Error("dead server produced bandwidth")
	}
}
