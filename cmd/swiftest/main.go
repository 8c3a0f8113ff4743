// Command swiftest is the one binary of the Swiftest bandwidth testing
// service: run a test server, run a client bandwidth test against a server
// pool, plan and operate a fleet, and reproduce the paper's measurement study
// and claims. Every operation is a verb; `swiftest help` lists them.
//
// Usage:
//
//	swiftest serve  [-addr :7007] [-uplink 100] [-wire auto|fallback] [-metrics :9090] [-faults plan.json] [-fault-server 0] [-v]
//	swiftest test   -servers host1:7007[@uplink],host2:7007[@uplink] [-tech 5G] [-max 5s] [-timeout 30s] [-json] [-trace run.jsonl]
//	swiftest ping   -servers host1:7007,host2:7007 [-count 3]
//
// A planned fleet comes alive with:
//
//	swiftest plan     [-tests-per-day 10000] [-min-servers 20] -json plan.json
//	swiftest dispatch -plan plan.json [-addr 127.0.0.1:7900] [-v]
//	swiftest serve    -register http://127.0.0.1:7900 -domain Beijing
//	swiftest test     -dispatch http://127.0.0.1:7900 [-domain Beijing]
//	swiftest loadgen  -plan plan.json -peak 5000 [-duration 30s] [-json]
//
// The §3 measurement study and the paper's claims:
//
//	swiftest dataset -n 1000000 -seed 1 | swiftest analyze [-report tech|bands|diurnal|rss|wifi|models|all]
//	swiftest claims  [-seed 1] [-only fig4,sec5.3,fig20.ping]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	swiftest "github.com/mobilebandwidth/swiftest"
	"github.com/mobilebandwidth/swiftest/internal/exper"
)

// verb is one swiftest subcommand: run receives the arguments after its name.
type verb struct {
	name, help string
	run        func(args []string) error
}

// verbs drives both main's dispatch and usage.
var verbs = []verb{
	{"serve", "run a Swiftest UDP test server", serve},
	{"test", "run a Swiftest client bandwidth test against a server pool", test},
	{"ping", "measure latency to servers", ping},
	{"simulate", "run a test on an emulated access link (no network needed)", simulate},
	{"relay", "emulate an access link in front of a real test server", relay},
	{"token", "mint a session auth token for a keyed deployment", tokenCmd},
	{"plan", "plan a server purchase and its IXP placement for a test workload", planCmd},
	{"dispatch", "run the fleet control plane for a deployment plan (HTTP)", dispatch},
	{"loadgen", "rehearse a deployment plan under diurnal load in virtual time", loadgenCmd},
	{"campaign", "sweep RAN profiles x algorithms x fault plans in virtual time", campaign},
	{"profiles", "list the built-in RAN scenario profile library", profilesCmd},
	{"earlystop", "train a learned early-termination model from replayed scenarios", earlystopCmd},
	{"dataset", "generate a synthetic measurement dataset as JSONL", datasetCmd},
	{"analyze", "compute the measurement-study findings from a JSONL dataset", analyze},
	{"claims", "check the paper's claims and print paper vs measured", claimsCmd},
}

// usageError marks a request the verb cannot run as asked (an unknown name
// among its options); main exits 2 for it, as for a bad flag, and 1 for
// every other failure.
type usageError struct{ error }

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "-h" || name == "--help" || name == "help" {
		usage(os.Stderr)
		return
	}
	i := slices.IndexFunc(verbs, func(v verb) bool { return v.name == name })
	if i < 0 {
		fmt.Fprintf(os.Stderr, "swiftest: unknown command %q\n", name)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err := verbs[i].run(os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "swiftest:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, "swiftest — ultra-fast, ultra-light bandwidth testing (SIGCOMM '22)\n\ncommands:\n")
	for _, v := range verbs {
		fmt.Fprintf(w, "  %-11s %s\n", v.name, v.help)
	}
	fmt.Fprint(w, "\nrun \"swiftest <command> -h\" for command flags.\n")
}

// writeFile creates path, hands it to write and closes it, returning the
// first error of the three: a close that fails (a full disk) is not lost.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseTech maps a -tech flag value to its access technology.
func parseTech(s string) (swiftest.Tech, error) {
	switch strings.ToUpper(s) {
	case "4G", "LTE":
		return swiftest.Tech4G, nil
	case "5G", "NR":
		return swiftest.Tech5G, nil
	case "WIFI":
		return swiftest.TechWiFi, nil
	}
	return 0, fmt.Errorf("unknown technology %q", s)
}

// loadModel reads the -model file when one is given, else returns the
// default model of the -tech technology.
func loadModel(path, tech string) (*swiftest.Model, error) {
	if path != "" {
		return swiftest.LoadModel(path)
	}
	t, err := parseTech(tech)
	if err != nil {
		return nil, err
	}
	return swiftest.DefaultModel(t)
}

// waitForSignal blocks until SIGINT or SIGTERM.
func waitForSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":7007", "UDP listen address")
	uplink := fs.Float64("uplink", 100, "server egress capacity (Mbps)")
	metricsAddr := fs.String("metrics", "", "HTTP listen address for /metrics (Prometheus text; empty disables)")
	faultsPath := fs.String("faults", "", "JSON fault plan to act out (times are elapsed since startup)")
	faultServer := fs.Int("fault-server", 0, "this server's index in the fault plan's pool order")
	register := fs.String("register", "", "fleet dispatch URL to register with and heartbeat (empty disables)")
	domain := fs.String("domain", "", "IXP domain to report when registering with a dispatcher")
	wireMode := fs.String("wire", "auto", "wire send path: auto (batched syscalls + segmentation offload where available) or fallback (one datagram per syscall)")
	authKey := fs.Uint64("authkey", 0, "fleet auth key; non-zero requires v2 clients to present a lease token minted under it")
	verbose := fs.Bool("v", false, "log test activity")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := swiftest.ServerOptions{UplinkMbps: *uplink, FaultServer: *faultServer, AuthKey: *authKey}
	switch *wireMode {
	case "auto":
		opts.Wire = swiftest.WireAuto
	case "fallback":
		opts.Wire = swiftest.WireFallback
	default:
		return fmt.Errorf("unknown -wire mode %q (want auto or fallback)", *wireMode)
	}
	if *faultsPath != "" {
		plan, err := swiftest.LoadFaultPlan(*faultsPath)
		if err != nil {
			return err
		}
		opts.FaultPlan = plan
		fmt.Printf("acting out %d faults from %s as pool server %d\n",
			len(plan.Faults), *faultsPath, *faultServer)
	}
	if *verbose {
		opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if *metricsAddr != "" {
		opts.Metrics = swiftest.NewMetricsRegistry()
	}
	srv, err := swiftest.NewServer(*addr, opts)
	if err != nil {
		return err
	}
	defer srv.Close()
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", opts.Metrics.Handler())
		msrv := &http.Server{Handler: mux}
		go func() { _ = msrv.Serve(ln) }()
		defer msrv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	}
	fmt.Printf("swiftest server listening on %s (uplink %.0f Mbps)\n", srv.Addr(), *uplink)
	if *register != "" {
		stop, err := registerWithDispatcher(*register, srv, *domain, *uplink)
		if err != nil {
			return err
		}
		defer stop()
	}

	waitForSignal()
	fmt.Printf("shutting down; %d bytes of probe traffic sent\n", srv.BytesSent())
	return nil
}

// parseServers parses "host:port[@uplinkMbps]" entries; a missing uplink
// defaults to 100 Mbps.
func parseServers(spec string) ([]swiftest.ServerAddr, error) {
	if spec == "" {
		return nil, fmt.Errorf("no servers given (use -servers host:port[@uplink],...)")
	}
	var out []swiftest.ServerAddr
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		addr, uplink := part, 100.0
		if at := strings.LastIndex(part, "@"); at >= 0 {
			addr = part[:at]
			u, err := strconv.ParseFloat(part[at+1:], 64)
			if err != nil || !(u > 0) || math.IsInf(u, 1) {
				return nil, fmt.Errorf("bad uplink in %q", part)
			}
			uplink = u
		}
		out = append(out, swiftest.ServerAddr{Addr: addr, UplinkMbps: uplink})
	}
	return out, nil
}

func test(args []string) error {
	fs := flag.NewFlagSet("test", flag.ExitOnError)
	servers := fs.String("servers", "", "comma-separated host:port[@uplinkMbps] test servers")
	dispatchURL := fs.String("dispatch", "", "fleet dispatch URL to request a server pool from (replaces -servers)")
	key := fs.Uint64("key", 0, "client key for deterministic dispatch tie-breaks (with -dispatch)")
	domain := fs.String("domain", "", "client IXP domain for latency-aware dispatch (with -dispatch)")
	tech := fs.String("tech", "5G", "access technology for the bandwidth model: 4G, 5G or WiFi")
	modelPath := fs.String("model", "", "JSON bandwidth-model file (overrides -tech; see SaveModel)")
	maxDur := fs.Duration("max", 5*time.Second, "probing deadline")
	timeout := fs.Duration("timeout", 0, "hard deadline for the whole test including server selection (0 disables)")
	asJSON := fs.Bool("json", false, "emit the result as JSON")
	tracePath := fs.String("trace", "", "write a JSONL run-record of the test to this file")
	tokenFlag := fs.String("token", "", "hex session auth token for a keyed deployment (minted by the dispatcher; implicit with -dispatch)")
	terminateFlag := fs.String("terminate", "", "termination policy: crossing (default), fastbts, or earlystop")
	terminateModel := fs.String("terminate-model", "", "earlystop model artifact to use with -terminate earlystop (empty selects the embedded default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	terminate, err := parseTerminate(*terminateFlag, *terminateModel)
	if err != nil {
		return err
	}
	var token swiftest.AuthToken
	if *tokenFlag != "" {
		if token, err = swiftest.ParseAuthToken(*tokenFlag); err != nil {
			return err
		}
	}

	var pool []swiftest.ServerAddr
	if *dispatchURL == "" {
		pool, err = parseServers(*servers)
		if err != nil {
			return err
		}
	}
	model, err := loadModel(*modelPath, *tech)
	if err != nil {
		return err
	}

	var trace *swiftest.Trace
	if *tracePath != "" {
		trace = swiftest.NewTrace(0)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *dispatchURL != "" {
		a, err := fetchAssignment(ctx, *dispatchURL, *key, *domain)
		if err != nil {
			return err
		}
		pool = a.Servers
		if *tokenFlag == "" && a.Token != "" {
			t, err := swiftest.ParseAuthToken(a.Token)
			if err != nil {
				return fmt.Errorf("dispatcher sent a bad lease token: %w", err)
			}
			token = t
		}
		fmt.Fprintf(os.Stderr, "dispatched to %s (pool of %d)\n", pool[0].Addr, len(pool))
		defer releaseAssignment(*dispatchURL, a)
	}
	res, err := swiftest.TestContext(ctx, swiftest.TestOptions{
		SessionOptions: swiftest.SessionOptions{Trace: trace, Terminate: terminate},
		Servers:        pool,
		Model:          model,
		MaxDuration:    *maxDur,
		Token:          token,
	})
	if err != nil {
		return err
	}
	if err := writeTrace(*tracePath, trace); err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Printf("bandwidth : %.1f Mbps\n", res.BandwidthMbps)
	fmt.Printf("estimates : trimmed %.1f, peak %.1f, p90-p80 %.1f Mbps (regime %s)\n",
		res.Estimates.TrimmedMeanMbps, res.Estimates.SustainedPeakMbps, res.Estimates.P90P80Mbps, res.Regime)
	fmt.Printf("duration  : %v probing + %v server selection\n",
		res.Duration.Round(time.Millisecond), res.SelectionTime.Round(time.Millisecond))
	fmt.Printf("data used : %.1f MB over %d samples\n", res.DataMB, len(res.Samples))
	fmt.Printf("converged : %v (initial rate %.0f Mbps, %d escalations)\n",
		res.Converged, res.InitialRateMbps, res.RateChanges)
	if res.ServersLost > 0 {
		fmt.Printf("degraded  : lost %d of %d servers mid-test and failed over\n",
			res.ServersLost, res.ServersUsed)
	}
	if res.Jitter > 0 {
		fmt.Printf("jitter    : %v (interarrival, RFC 3550 style)\n", res.Jitter.Round(time.Microsecond))
	}
	return nil
}

// writeTrace dumps a test's run-record to path as JSONL; a nil trace (no
// -trace flag) writes nothing.
func writeTrace(path string, tr *swiftest.Trace) error {
	if tr == nil {
		return nil
	}
	if err := writeFile(path, tr.WriteJSONL); err != nil {
		return fmt.Errorf("writing run-record: %w", err)
	}
	fmt.Fprintf(os.Stderr, "run-record written to %s\n", path)
	return nil
}

func ping(args []string) error {
	fs := flag.NewFlagSet("ping", flag.ExitOnError)
	servers := fs.String("servers", "", "comma-separated host:port servers")
	count := fs.Int("count", 3, "pings per server")
	timeout := fs.Duration("timeout", time.Second, "per-ping timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pool, err := parseServers(*servers)
	if err != nil {
		return err
	}
	exit := error(nil)
	for _, s := range pool {
		rtt, err := swiftest.PingServer(context.Background(), swiftest.PingOptions{Addr: s.Addr, Count: *count, Timeout: *timeout})
		if err != nil {
			fmt.Printf("%-28s unreachable (%v)\n", s.Addr, err)
			exit = fmt.Errorf("some servers unreachable")
			continue
		}
		fmt.Printf("%-28s %v\n", s.Addr, rtt.Round(time.Microsecond))
	}
	return exit
}

func simulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	capMbps := fs.Float64("capacity", 300, "emulated access-link capacity (Mbps)")
	rtt := fs.Duration("rtt", 30*time.Millisecond, "link RTT")
	fluct := fs.Float64("noise", 0.01, "relative capacity fluctuation")
	tech := fs.String("tech", "5G", "bandwidth model: 4G, 5G or WiFi")
	modelPath := fs.String("model", "", "JSON bandwidth-model file (overrides -tech)")
	seed := fs.Int64("seed", 1, "emulation seed")
	compare := fs.Bool("compare", false, "also run the flooding/FAST/FastBTS baselines")
	tracePath := fs.String("trace", "", "write a JSONL run-record of the emulated test to this file")
	faultsPath := fs.String("faults", "", "JSON fault plan to inject into the emulated pool")
	uplinks := fs.String("uplinks", "", "comma-separated per-server uplink caps (Mbps) for a multi-server pool")
	profileName := fs.String("profile", "", "drive the link with a RAN scenario profile (see `swiftest profiles`; overrides -capacity/-rtt/-noise)")
	terminateFlag := fs.String("terminate", "", "termination policy: crossing (default), fastbts, or earlystop")
	terminateModel := fs.String("terminate-model", "", "earlystop model artifact to use with -terminate earlystop (empty selects the embedded default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	terminate, err := parseTerminate(*terminateFlag, *terminateModel)
	if err != nil {
		return err
	}
	var profile *swiftest.Profile
	if *profileName != "" {
		p, err := swiftest.LookupProfile(*profileName)
		if err != nil {
			return err
		}
		profile = p
		techSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "tech" {
				techSet = true
			}
		})
		if !techSet && *modelPath == "" {
			*tech = p.Tech // default the model to the profile's technology
		}
	}
	model, err := loadModel(*modelPath, *tech)
	if err != nil {
		return err
	}
	// The profile rides on the LinkConfig so -compare baselines replay the
	// identical scenario (same seed, same state chain) as the Swiftest run.
	link := swiftest.LinkConfig{CapacityMbps: *capMbps, RTT: *rtt, Fluctuation: *fluct, Seed: *seed, Profile: profile}
	var trace *swiftest.Trace
	if *tracePath != "" {
		trace = swiftest.NewTrace(0)
	}
	simOpts := swiftest.SimulateOptions{SessionOptions: swiftest.SessionOptions{Trace: trace, Terminate: terminate}}
	if *faultsPath != "" {
		plan, err := swiftest.LoadFaultPlan(*faultsPath)
		if err != nil {
			return err
		}
		simOpts.Faults = plan
	}
	if *uplinks != "" {
		for i, part := range strings.Split(*uplinks, ",") {
			u, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || u <= 0 {
				return fmt.Errorf("bad uplink %q in -uplinks", part)
			}
			simOpts.Servers = append(simOpts.Servers, swiftest.SimServer{
				Addr:       fmt.Sprintf("sim-%d", i),
				UplinkMbps: u,
			})
		}
	}
	res, err := swiftest.SimulateTestContext(context.Background(), link, model, simOpts)
	if err != nil {
		return err
	}
	if err := writeTrace(*tracePath, trace); err != nil {
		return err
	}
	fmt.Printf("swiftest : %.1f Mbps in %v, %.1f MB, converged=%v (%d escalations)\n",
		res.BandwidthMbps, res.Duration, res.DataMB, res.Converged, res.RateChanges)
	fmt.Printf("estimates: trimmed %.1f, peak %.1f, p90-p80 %.1f Mbps (regime %s)\n",
		res.Estimates.TrimmedMeanMbps, res.Estimates.SustainedPeakMbps, res.Estimates.P90P80Mbps, res.Regime)
	if res.ServersLost > 0 {
		fmt.Printf("degraded : lost %d of %d servers mid-test and failed over\n",
			res.ServersLost, res.ServersUsed)
	}
	if !*compare {
		return nil
	}
	bts, err := swiftest.RunBTSApp(link)
	if err != nil {
		return err
	}
	fast, err := swiftest.RunFAST(link)
	if err != nil {
		return err
	}
	fbts, err := swiftest.RunFastBTS(link)
	if err != nil {
		return err
	}
	for _, b := range []swiftest.BaselineReport{bts, fast, fbts} {
		fmt.Printf("%-9s: %.1f Mbps in %v, %.1f MB\n", b.System, b.BandwidthMbps, b.Duration, b.DataMB)
	}
	return nil
}

func relay(args []string) error {
	fs := flag.NewFlagSet("relay", flag.ExitOnError)
	target := fs.String("target", "", "real test server (host:port)")
	rate := fs.Float64("rate", 50, "bottleneck rate (Mbps)")
	delay := fs.Duration("delay", 20*time.Millisecond, "one-way downlink delay")
	loss := fs.Float64("loss", 0, "downlink loss probability")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target == "" {
		return fmt.Errorf("no target given (use -target host:port)")
	}
	rl, err := swiftest.NewLinkRelay(swiftest.LinkRelayConfig{
		Target:   *target,
		RateMbps: *rate,
		Delay:    *delay,
		LossRate: *loss,
	})
	if err != nil {
		return err
	}
	defer rl.Close()
	fmt.Printf("emulated %g Mbps / %v / %.1f%%-loss link on %s → %s\n",
		*rate, *delay, *loss*100, rl.Addr(), *target)
	fmt.Println("point clients at the relay address instead of the server")

	waitForSignal()
	fmt.Printf("shutting down; delivered %d bytes, dropped %d datagrams\n",
		rl.DeliveredBytes(), rl.DroppedPackets())
	return nil
}

func campaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	profilesFlag := fs.String("profiles", "all", `comma-separated RAN profiles to sweep, or "all"`)
	algsFlag := fs.String("algs", "swiftest,fastbts", "comma-separated termination algorithms (swiftest, fastbts, fast, earlystop, btsapp)")
	runs := fs.Int("runs", 3, "seeded runs per (profile, algorithm, fault plan) cell")
	seed := fs.Int64("seed", 1, "campaign seed; the report is a pure function of (config, seed)")
	workers := fs.Int("workers", 4, "concurrent runs (the report is byte-identical at any worker count)")
	jsonOut := fs.String("json", "", `write the swiftest-campaign-report/v2 JSON here ("-" for stdout, suppressing the table)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateWorkers(*workers); err != nil {
		return err
	}
	cfg := exper.CampaignConfig{Runs: *runs, Seed: *seed, Workers: *workers}
	if *profilesFlag != "all" && *profilesFlag != "" {
		cfg.Profiles = strings.Split(*profilesFlag, ",")
	}
	if *algsFlag != "" {
		cfg.Algorithms = strings.Split(*algsFlag, ",")
	}
	rep, err := exper.RunCampaign(context.Background(), cfg)
	if err != nil {
		return err
	}
	if *jsonOut == "-" {
		return rep.WriteJSON(os.Stdout)
	}
	if *jsonOut != "" {
		if err := writeFile(*jsonOut, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "campaign report written to %s\n", *jsonOut)
	}
	return rep.WriteTable(os.Stdout)
}

// tokenCmd mints a session auth token out-of-band — what the dispatcher does
// per lease, exposed for keyed deployments running without a control plane.
func tokenCmd(args []string) error {
	fs := flag.NewFlagSet("token", flag.ExitOnError)
	authKey := fs.Uint64("authkey", 0, "deployment auth key (must match the servers' -authkey)")
	server := fs.Uint("server", 0, "server ID the token is bound to")
	seq := fs.Uint64("seq", 1, "lease sequence number")
	ttl := fs.Duration("ttl", 0, "token lifetime from now; servers reject the token after it passes (0 = never expires)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *authKey == 0 {
		return fmt.Errorf("no auth key given (use -authkey; zero keys an open deployment, which needs no tokens)")
	}
	if *ttl < 0 {
		return fmt.Errorf("negative -ttl %v", *ttl)
	}
	var deadline time.Time
	if *ttl > 0 {
		deadline = time.Now().Add(*ttl) //lint:allow walltime out-of-band token minting anchors its deadline to real time
	}
	fmt.Println(swiftest.MintAuthToken(*authKey, uint32(*server), *seq, deadline).String())
	return nil
}

func profilesCmd(args []string) error {
	fs := flag.NewFlagSet("profiles", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, name := range swiftest.Profiles() {
		p, err := swiftest.LookupProfile(name)
		if err != nil {
			return err
		}
		states := make([]string, 0, len(p.States))
		for _, s := range p.States {
			states = append(states, fmt.Sprintf("%s(%gMbps/%gms)", s.Name, s.CapacityMbps, s.RTTMillis))
		}
		fmt.Printf("%-26s %-5s %s\n%-26s       states: %s\n", name, p.Tech, p.Description, "", strings.Join(states, " "))
	}
	return nil
}
