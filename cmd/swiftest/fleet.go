package main

// The fleet face of the CLI: `swiftest plan` sizes and places a fleet and
// writes its deployment artifact, `swiftest dispatch` serves the HTTP
// control plane for it, `swiftest serve -register` makes a test server join
// it and heartbeat, `swiftest test -dispatch` asks it for a ranked server
// pool, and `swiftest loadgen` rehearses the whole thing at Figure-26 scale
// in virtual time.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
	"github.com/mobilebandwidth/swiftest/internal/deploy"
	"github.com/mobilebandwidth/swiftest/internal/errdefs"
	"github.com/mobilebandwidth/swiftest/internal/fleet"
	"github.com/mobilebandwidth/swiftest/internal/loadgen"
)

// planCmd runs the §5.2 cost-effective deployment planner: it estimates the
// egress a test workload needs, solves the integer-linear purchase problem
// with branch-and-bound, and places the purchased servers across the eight
// core-IXP domains. -json writes the artifact dispatch and loadgen read.
func planCmd(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	testsPerDay := fs.Float64("tests-per-day", 10000, "expected daily bandwidth tests")
	avgDur := fs.Duration("avg-duration", 1200*time.Millisecond, "average test duration")
	avgBW := fs.Float64("avg-bandwidth", 300, "average client access bandwidth (Mbps)")
	peak := fs.Float64("peak", 3, "peak-to-mean concurrency factor")
	margin := fs.Float64("margin", 0.075, "burst headroom over the estimate (0.05–0.10)")
	minServers := fs.Int("min-servers", 20, "geographic-coverage minimum server count")
	jsonPath := fs.String("json", "", "write the plan as a deployment artifact to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	w := deploy.Workload{
		TestsPerDay:     *testsPerDay,
		AvgTestDuration: *avgDur,
		AvgBandwidth:    *avgBW,
		PeakFactor:      *peak,
	}
	required := w.RequiredMbps()
	fmt.Printf("workload: %.0f tests/day × %v × %.0f Mbps, peak ×%.1f\n",
		*testsPerDay, *avgDur, *avgBW, *peak)
	fmt.Printf("estimated egress requirement: %.0f Mbps (+%.1f %% margin → %.0f Mbps)\n",
		required, *margin*100, required*(1+*margin))

	catalogue := deploy.SyntheticCatalogue()
	plan, err := deploy.PlanPurchase(catalogue, required, *margin, deploy.PlanOptions{MinServers: *minServers})
	if err != nil {
		return err
	}
	fmt.Printf("\npurchase plan ($%.2f/month, %.0f Mbps total, %d branch-and-bound nodes):\n",
		plan.MonthlyCost, plan.TotalMbps, plan.NodesExplored)
	for _, pu := range plan.Purchases {
		fmt.Printf("  %3d × %-14s %6.0f Mbps  $%8.2f/mo each\n",
			pu.Count, pu.Config.Name, pu.Config.BandwidthMbps, pu.Config.PricePerMonth)
	}

	placements, err := deploy.PlaceServers(plan, nil)
	if err != nil {
		return err
	}
	fmt.Println("\nplacement (one entry per core IXP domain, §5.2):")
	for _, p := range placements {
		fmt.Printf("  %-10s %2d servers, %6.0f Mbps\n", p.Domain, len(p.Servers), p.Mbps)
	}

	legacy, err := deploy.LegacyBTSAppFleet(catalogue)
	if err == nil {
		fmt.Printf("\nvs BTS-APP's allocation (50 × 1 Gbps): $%.2f/mo — %.1f× more expensive\n",
			legacy.MonthlyCost, legacy.MonthlyCost/plan.MonthlyCost)
	}

	if *jsonPath != "" {
		if err := writeArtifact(*jsonPath, w, plan, placements); err != nil {
			return err
		}
		fmt.Printf("\ndeployment artifact written to %s\n", *jsonPath)
	}
	return nil
}

// writeArtifact saves the plan in the schema `swiftest dispatch` loads.
func writeArtifact(path string, w deploy.Workload, plan deploy.Plan, placements []deploy.Placement) error {
	art := deploy.NewArtifact(w, plan, placements)
	if err := art.Validate(); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if err := writeFile(path, art.Encode); err != nil {
		return fmt.Errorf("writing artifact: %w", err)
	}
	return nil
}

// assignResponse is the /assign payload: the lease plus the ranked pool,
// ready to feed a client's -servers list.
type assignResponse struct {
	LeaseServer int                   `json:"lease_server"`
	LeaseSeq    uint64                `json:"lease_seq"`
	Servers     []swiftest.ServerAddr `json:"servers"`
	// Token is the hex session auth token minted for this lease; empty on
	// open (unkeyed) fleets. Clients present it at v2 session setup.
	Token string `json:"token,omitempty"`
}

type registerResponse struct {
	ID int `json:"id"`
	// HeartbeatMS is the liveness window; beat at least once per window.
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// controlPlane is the HTTP face of a fleet.Dispatcher. The dispatcher's core
// is caller-stamped; the control plane stamps every call with the wall time
// elapsed since it was built.
type controlPlane struct {
	d     *fleet.Dispatcher
	start time.Time
	logf  func(format string, a ...any)
}

// newControlPlane builds the dispatcher for a deployment artifact. With a
// token TTL, lease tokens expire counting from the instant elapsed time
// counts from.
func newControlPlane(art *deploy.Artifact, cfg fleet.Config, logf func(string, ...any)) (*controlPlane, error) {
	start := time.Now() //lint:allow walltime the live control plane's time base, mirroring transport.Server
	if cfg.TokenTTL > 0 {
		cfg.TokenEpochMS = uint64(start.UnixMilli())
	}
	d, err := fleet.NewDispatcherFromArtifact(art, cfg)
	if err != nil {
		return nil, err
	}
	return &controlPlane{d: d, start: start, logf: logf}, nil
}

func (c *controlPlane) elapsed() time.Duration {
	return time.Since(c.start) //lint:allow walltime the live control plane's time base, mirroring transport.Server
}

// nonNegative reads a finite, non-negative number from query parameter name;
// an absent parameter reads as zero. A NaN claim would poison a server's
// load for good, because every later release subtracts from NaN.
func nonNegative(q url.Values, name string) (float64, error) {
	s := q.Get(name)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("bad %s %q: want a finite, non-negative number", name, s)
	}
	return v, nil
}

// handler routes the control plane's HTTP API, with the fleet's metrics on
// /metrics.
func (c *controlPlane) handler(metrics *swiftest.MetricsRegistry) http.Handler {
	reg := c.d.Registry()
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler())
	mux.HandleFunc("/register", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		uplink, err := nonNegative(q, "uplink")
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := reg.Register(q.Get("addr"), q.Get("domain"), uplink, c.elapsed())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.logf("register server=%d addr=%s domain=%s uplink=%.0f", id, q.Get("addr"), q.Get("domain"), uplink)
		writeJSON(w, registerResponse{ID: id, HeartbeatMS: reg.HeartbeatWindow().Milliseconds()})
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.URL.Query().Get("id"))
		if err != nil {
			http.Error(w, "bad id", http.StatusBadRequest)
			return
		}
		if err := reg.Heartbeat(id, c.elapsed()); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/assign", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		key, _ := strconv.ParseUint(q.Get("key"), 10, 64)
		claim, err := nonNegative(q, "claim")
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// A client that has hung up is charged no token and no lease.
		var a fleet.Assignment
		if err = r.Context().Err(); err == nil {
			a, err = c.d.Dispatch(fleet.ClientInfo{Key: key, Domain: q.Get("domain"), ClaimMbps: claim}, c.elapsed())
		}
		if err != nil {
			var sat *errdefs.SaturatedError
			if errors.As(err, &sat) {
				w.Header().Set("Retry-After", strconv.Itoa(int(sat.RetryAfter.Seconds()+1)))
				c.logf("reject client=%d retry-after=%v", key, sat.RetryAfter)
			} else {
				c.logf("reject client=%d err=%v", key, err)
			}
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		out := assignResponse{LeaseServer: a.Lease.Server, LeaseSeq: a.Lease.Seq}
		for _, s := range a.Servers {
			out.Servers = append(out.Servers, swiftest.ServerAddr{Addr: s.Addr, UplinkMbps: s.UplinkMbps})
		}
		if !a.Token.IsZero() {
			out.Token = a.Token.String()
		}
		c.logf("assign client=%d server=%d addr=%s pool=%d", key, a.Lease.Server, out.Servers[0].Addr, len(out.Servers))
		writeJSON(w, out)
	})
	mux.HandleFunc("/release", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		server, _ := strconv.Atoi(q.Get("server"))
		seq, _ := strconv.ParseUint(q.Get("seq"), 10, 64)
		reg.Release(fleet.LeaseID{Server: server, Seq: seq}, c.elapsed())
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.URL.Query().Get("id"))
		if err != nil {
			http.Error(w, "bad id", http.StatusBadRequest)
			return
		}
		if err := reg.Drain(id, c.elapsed()); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.logf("drain server=%d", id)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/servers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, reg.Servers())
	})
	return mux
}

func dispatch(args []string) error {
	fs := flag.NewFlagSet("dispatch", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7900", "HTTP listen address for the control plane")
	planPath := fs.String("plan", "", "deployment-plan artifact from `swiftest plan -json` (required)")
	perTest := fs.Float64("pertest", 5, "per-test bandwidth reservation (Mbps) for admission caps")
	window := fs.Duration("window", 0, "heartbeat liveness window (0 selects the 500ms default)")
	authKey := fs.Uint64("authkey", 0, "fleet auth key; non-zero mints a session token per lease (give servers the same -authkey)")
	tokenTTL := fs.Duration("token-ttl", 0, "lease token lifetime; keyed servers reject session setups with stale tokens (0 = tokens never expire)")
	verbose := fs.Bool("v", false, "log assignments, rejections, drains, and server deaths")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tokenTTL != 0 && *authKey == 0 {
		return fmt.Errorf("-token-ttl needs -authkey: open fleets mint no tokens to expire")
	}
	if *planPath == "" {
		return fmt.Errorf("no deployment plan given (use -plan artifact.json; see swiftest plan -json)")
	}
	art, err := deploy.LoadArtifact(*planPath)
	if err != nil {
		return err
	}
	logf := func(format string, a ...any) {
		if *verbose {
			fmt.Printf(format+"\n", a...)
		}
	}
	metrics := swiftest.NewMetricsRegistry()
	c, err := newControlPlane(art, fleet.Config{
		PerTestMbps:     *perTest,
		HeartbeatWindow: *window,
		AuthKey:         *authKey,
		TokenTTL:        *tokenTTL,
		Metrics:         metrics,
	}, logf)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("control-plane listener: %w", err)
	}
	defer ln.Close()
	srv := &http.Server{Handler: c.handler(metrics)}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	fmt.Printf("fleet dispatch on http://%s (plan: %d servers, %d-session capacity)\n",
		ln.Addr(), art.Plan.Servers(), c.d.Capacity())

	// The clock loop: fold heartbeat windows twice per window and narrate
	// state transitions (server_dead, drain completion) for the logs.
	tick := time.NewTicker(c.d.Registry().HeartbeatWindow() / 2) //lint:allow walltime the live control plane advances on wall time, like transport
	defer tick.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	lastState := map[int]string{}
	for {
		select {
		case <-tick.C:
			c.d.Registry().Advance(c.elapsed())
			for _, s := range c.d.Registry().Servers() {
				state := s.State.String()
				if prev, ok := lastState[s.ID]; ok && prev != state {
					switch state {
					case "dead":
						fmt.Printf("server_dead server=%d addr=%s silent=%d\n", s.ID, s.Addr, s.Silent)
					default:
						logf("server_state server=%d addr=%s %s -> %s", s.ID, s.Addr, prev, state)
					}
				}
				lastState[s.ID] = state
			}
		case <-sig:
			fmt.Println("dispatch shutting down")
			return nil
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// registerWithDispatcher joins a running control plane and starts the
// heartbeat loop. Beats are gated on the server's fault plan: a blacked-out
// server goes silent on the control plane exactly as on the data plane, so
// the dispatcher's K-silent-windows rule kills it. Returns a stop function
// that drains the server out of the fleet.
func registerWithDispatcher(dispatchURL string, srv *swiftest.Server, domain string, uplink float64) (stop func(), err error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	v := url.Values{}
	v.Set("addr", srv.Addr())
	v.Set("domain", domain)
	v.Set("uplink", strconv.FormatFloat(uplink, 'f', -1, 64))
	resp, err := hc.Post(dispatchURL+"/register?"+v.Encode(), "", nil)
	if err != nil {
		return nil, fmt.Errorf("registering with %s: %w", dispatchURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("registering with %s: HTTP %d", dispatchURL, resp.StatusCode)
	}
	var reg registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		return nil, fmt.Errorf("decoding register response: %w", err)
	}
	fmt.Printf("registered with %s as fleet server %d (heartbeat every %dms)\n",
		dispatchURL, reg.ID, reg.HeartbeatMS/2)

	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		// Beat twice per liveness window so one lost datagram is harmless.
		tick := time.NewTicker(time.Duration(reg.HeartbeatMS) * time.Millisecond / 2) //lint:allow walltime live heartbeat loop against a real control plane
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if srv.BlackedOut() {
					continue // silent: let the dispatcher see the blackout
				}
				resp, err := hc.Post(fmt.Sprintf("%s/heartbeat?id=%d", dispatchURL, reg.ID), "", nil)
				if err == nil {
					resp.Body.Close()
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
		resp, err := hc.Post(fmt.Sprintf("%s/drain?id=%d", dispatchURL, reg.ID), "", nil)
		if err == nil {
			resp.Body.Close()
		}
	}, nil
}

// fetchAssignment asks a dispatch control plane for a ranked server pool.
func fetchAssignment(ctx context.Context, dispatchURL string, key uint64, domain string) (assignResponse, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	v := url.Values{}
	v.Set("key", strconv.FormatUint(key, 10))
	v.Set("domain", domain)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, dispatchURL+"/assign?"+v.Encode(), nil)
	if err != nil {
		return assignResponse{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return assignResponse{}, fmt.Errorf("asking %s for a server: %w", dispatchURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		// The dispatcher sets Retry-After only when live servers are full;
		// a 503 without it means no server is live at all.
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			return assignResponse{}, fmt.Errorf("%w: dispatcher says retry after %ss", errdefs.ErrFleetSaturated, ra)
		}
		return assignResponse{}, fmt.Errorf("%w: dispatcher has no live server", errdefs.ErrNoReachableServer)
	}
	if resp.StatusCode != http.StatusOK {
		return assignResponse{}, fmt.Errorf("dispatcher: HTTP %d", resp.StatusCode)
	}
	var a assignResponse
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		return assignResponse{}, fmt.Errorf("decoding assignment: %w", err)
	}
	if len(a.Servers) == 0 {
		return assignResponse{}, fmt.Errorf("dispatcher returned an empty pool")
	}
	return a, nil
}

// releaseAssignment frees the dispatch lease after the test.
func releaseAssignment(dispatchURL string, a assignResponse) {
	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Post(fmt.Sprintf("%s/release?server=%d&seq=%d", dispatchURL, a.LeaseServer, a.LeaseSeq), "", nil)
	if err == nil {
		resp.Body.Close()
	}
}

func loadgenCmd(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	planPath := fs.String("plan", "", "deployment-plan artifact from `swiftest plan -json` (required)")
	peak := fs.Int("peak", 1000, "target concurrent tests at the diurnal peak")
	duration := fs.Duration("duration", 30*time.Second, "virtual horizon (one diurnal day is compressed into it)")
	perTest := fs.Float64("pertest", 1, "per-test offered rate and admission sizing (Mbps)")
	workers := workersFlag(fs, "goroutines advancing per-server links; does not affect results")
	seed := fs.Int64("seed", 1, "run seed")
	faultsPath := fs.String("faults", "", "JSON fault plan to inject (server indexes = fleet slot IDs)")
	profileName := fs.String("profile", "", "drive server uplinks through a RAN scenario profile (see `swiftest profiles`)")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *planPath == "" {
		return fmt.Errorf("no deployment plan given (use -plan artifact.json; see swiftest plan -json)")
	}
	art, err := deploy.LoadArtifact(*planPath)
	if err != nil {
		return err
	}
	cfg := loadgen.Config{
		Plan:           art.Plan,
		Placements:     art.Placements,
		PeakConcurrent: *peak,
		Duration:       *duration,
		PerTestMbps:    *perTest,
		Workers:        *workers,
		Seed:           *seed,
	}
	if *faultsPath != "" {
		plan, err := swiftest.LoadFaultPlan(*faultsPath)
		if err != nil {
			return err
		}
		cfg.Faults = plan.Injector()
	}
	if *profileName != "" {
		p, err := swiftest.LookupProfile(*profileName)
		if err != nil {
			return err
		}
		cfg.Profile = p
	}
	rep, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("virtual time   : %v (one diurnal day compressed)\n", rep.Duration)
	fmt.Printf("tests          : %d started, %d completed, %d rejected, %d abandoned\n",
		rep.TestsStarted, rep.TestsCompleted, rep.TestsRejected, rep.TestsAbandoned)
	fmt.Printf("peak concurrent: %d\n", rep.PeakConcurrent)
	fmt.Printf("rejection rate : %.2f%%\n", rep.RejectionRate*100)
	fmt.Printf("failovers      : %d\n", rep.Failovers)
	fmt.Printf("mean achieved  : %.2f Mbps per test\n", rep.MeanAchievedMbps)
	for _, s := range rep.Servers {
		fmt.Printf("server %-2d %-22s %7.1f MB delivered, %5.1f%% utilization, peak %d sessions\n",
			s.ID, s.Addr, s.DeliveredMB, s.Utilization*100, s.PeakSessions)
	}
	fmt.Printf("assignment digest: %s\n", rep.AssignmentDigest)
	return nil
}
