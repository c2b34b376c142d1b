// Command resolverbench reproduces the paper's §7 resolver-platform
// comparison in isolation: shared-cache hit rates, R-lookup delay
// distributions and throughput distributions per platform, including
// Google's connectivity-check artifact (Figure 3).
//
// Usage:
//
//	resolverbench -houses 50 -duration 12h
//	resolverbench -loss-sweep -houses 20 -duration 4h
//	resolverbench -transport-sweep -houses 20 -duration 4h
//
// With -loss-sweep the command instead runs the fault-injection
// experiment: the same workload under increasing packet loss, with and
// without a scheduled local-resolver outage, reporting the
// failure-adjusted blocking distribution for each cell.
//
// With -transport-sweep it forward-simulates the same workload over each
// wire transport (Do53, DoTCP, DoT, DoH — the TLS ones with and without
// session resumption) across the loss sweep, reporting the blocked-on-DNS
// fraction and the stream failure counters per cell. This is the
// simulated ground truth the analytic dnsctx -whatif-transport table
// approximates.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"dnscontext"
	"dnscontext/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("resolverbench: ")

	var (
		houses      = flag.Int("houses", 30, "houses")
		duration    = flag.Duration("duration", 8*time.Hour, "window")
		seed        = flag.Uint64("seed", 1, "seed")
		lossSweep   = flag.Bool("loss-sweep", false, "run the fault-injection loss sweep instead of the platform comparison")
		transpSweep = flag.Bool("transport-sweep", false, "run the transport × loss sweep instead of the platform comparison")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /metrics.json on this address (e.g. :9090)")
		withPprof   = flag.Bool("pprof", false, "also mount /debug/pprof on the metrics server")
	)
	flag.Parse()

	var reg *dnscontext.MetricsRegistry
	if *metricsAddr != "" {
		reg = dnscontext.NewMetricsRegistry()
		srv, err := dnscontext.ServeMetrics(*metricsAddr, reg, *withPprof)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("metrics at http://%s/metrics", srv.Addr())
	}

	if *lossSweep {
		runLossSweep(*houses, *duration, *seed, reg)
		return
	}
	if *transpSweep {
		runTransportSweep(*houses, *duration, *seed, reg)
		return
	}

	cfg := dnscontext.DefaultGeneratorConfig()
	cfg.Houses = *houses
	cfg.Duration = *duration
	cfg.Seed = *seed
	cfg.Metrics = reg
	// Cloudflare houses are rare (3.8%); force a few so the comparison
	// has data for all four platforms at small scales.
	if *houses < 80 {
		cfg.CloudflareHouseProb = 0.12
	}

	ds, eco, err := dnscontext.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	a := dnscontext.NewAnalyzer().Analyze(ds)
	rp := a.ResolverPerformance(eco.Profiles)

	fmt.Printf("Resolver platform comparison (%d houses, %v, %d conns)\n\n",
		*houses, *duration, len(ds.Conns))
	fmt.Printf("%-12s %10s %12s %14s %14s\n", "Platform", "Hit rate", "R med (ms)", "R p90 (ms)", "Tput med (bps)")
	for _, p := range eco.Profiles {
		hr, ok := rp.HitRate[p.ID]
		if !ok {
			continue
		}
		rmed, rp90 := "-", "-"
		if e := rp.RDelays[p.ID]; e != nil && e.N() > 0 {
			rmed = fmt.Sprintf("%.1f", e.Median())
			rp90 = fmt.Sprintf("%.1f", e.Quantile(0.9))
		}
		tmed := "-"
		if e := rp.Throughput[p.ID]; e != nil && e.N() > 0 {
			tmed = fmt.Sprintf("%.0f", e.Median())
		}
		fmt.Printf("%-12s %9.1f%% %12s %14s %14s\n", p.ID, 100*hr, rmed, rp90, tmed)
	}
	fmt.Printf("\nconnectivitycheck share of Google blocked conns: %.1f%% (paper: 23.5%%)\n", 100*rp.GoogleCCFraction)

	var rCurves []stats.Curve
	for _, p := range eco.Profiles {
		if e := rp.RDelays[p.ID]; e != nil && e.N() > 0 {
			rCurves = append(rCurves, stats.Curve{Name: p.ID.String(), ECDF: e})
		}
	}
	if len(rCurves) > 0 {
		fmt.Fprint(os.Stdout, stats.RenderCDFs(stats.PlotOptions{
			Title:  "Fig 3 (top). CDF of R lookup delay by platform (msec)",
			XLabel: "msec", LogX: true, XMin: 1,
		}, rCurves...))
	}
	var tCurves []stats.Curve
	for _, p := range eco.Profiles {
		if e := rp.Throughput[p.ID]; e != nil && e.N() > 0 {
			tCurves = append(tCurves, stats.Curve{Name: p.ID.String(), ECDF: e})
		}
	}
	if rp.GoogleNoCC.N() > 0 {
		tCurves = append(tCurves, stats.Curve{Name: "Google-noCC", ECDF: rp.GoogleNoCC})
	}
	if len(tCurves) > 0 {
		fmt.Fprint(os.Stdout, stats.RenderCDFs(stats.PlotOptions{
			Title:  "Fig 3 (bottom). CDF of throughput by platform (bps)",
			XLabel: "bps", LogX: true, XMin: 100,
		}, tCurves...))
	}
}

// sweepLosses are the loss rates of the fault-injection experiment:
// pristine, 0.1%, 1%, and 5% per-transmission loss.
var sweepLosses = []float64{0, 0.001, 0.01, 0.05}

// transportCells are the transport-sweep scenarios: the Do53 baseline,
// DoTCP, and the TLS transports with and without session resumption.
var transportCells = []struct {
	kind   string
	resume bool
	label  string
}{
	{"udp", false, "Do53"},
	{"tcp", false, "DoTCP"},
	{"dot", false, "DoT"},
	{"dot", true, "DoT+res"},
	{"doh", false, "DoH"},
	{"doh", true, "DoH+res"},
}

// runTransportSweep forward-simulates each transport cell under each loss
// rate and reports the blocking split plus the stream failure breakdown
// (datagram timeouts vs stream connection resets, summed over platforms).
func runTransportSweep(houses int, duration time.Duration, seed uint64, reg *dnscontext.MetricsRegistry) {
	fmt.Printf("Transport × loss sweep (%d houses, %v, seed %d)\n\n", houses, duration, seed)
	fmt.Printf("%-9s %-6s %6s %6s %6s %9s %9s %10s %10s\n",
		"transport", "loss", "LC%", "SC%", "R%", "blocked%", "servfail%", "timeouts", "resets")
	for _, cell := range transportCells {
		for _, loss := range sweepLosses {
			cfg := dnscontext.DefaultGeneratorConfig()
			cfg.Houses = houses
			cfg.Duration = duration
			cfg.Warmup = duration / 2
			cfg.Seed = seed
			cfg.Metrics = reg
			cfg.Faults.Loss = loss
			cfg.Transport.Kind = cell.kind
			cfg.Transport.SessionResumption = cell.resume
			ds, eco, err := dnscontext.Generate(cfg)
			if err != nil {
				log.Fatal(err)
			}
			a := dnscontext.NewAnalyzer().Analyze(ds)
			fs := a.Failures()
			var timeouts, resets uint64
			for _, rec := range eco.Platforms {
				t, r := rec.LossCounters()
				timeouts += t
				resets += r
			}
			fmt.Printf("%-9s %-6s %6.1f %6.1f %6.1f %9.1f %9.2f %10d %10d\n",
				cell.label, fmt.Sprintf("%.1f%%", 100*loss),
				100*a.Fraction(dnscontext.ClassLC),
				100*a.Fraction(dnscontext.ClassSC), 100*a.Fraction(dnscontext.ClassR),
				100*a.BlockedFraction(), 100*fs.ServFailFraction(), timeouts, resets)
		}
	}
}

// runLossSweep generates the same workload under each (loss, outage)
// cell and reports the failure-adjusted blocking distribution: the
// N/LC/P/SC/R split, the blocked share, and the fault-path activity.
func runLossSweep(houses int, duration time.Duration, seed uint64, reg *dnscontext.MetricsRegistry) {
	fmt.Printf("Fault-injection loss sweep (%d houses, %v, seed %d)\n", houses, duration, seed)
	fmt.Printf("outage cells drop the Local platform for 30m starting 1h into the window\n\n")
	fmt.Printf("%-7s %-7s %6s %6s %6s %6s %6s %9s %9s %9s %8s\n",
		"loss", "outage", "N%", "LC%", "P%", "SC%", "R%", "blocked%", "servfail%", "retried%", "att/q")
	for _, outage := range []bool{false, true} {
		for _, loss := range sweepLosses {
			cfg := dnscontext.DefaultGeneratorConfig()
			cfg.Houses = houses
			cfg.Duration = duration
			cfg.Warmup = duration / 2
			cfg.Seed = seed
			cfg.Metrics = reg
			cfg.Faults.Loss = loss
			if outage {
				cfg.Faults.LocalOutages = []dnscontext.OutageWindow{{Start: time.Hour, End: time.Hour + 30*time.Minute}}
				cfg.Faults.StaleHold = time.Hour
			}
			ds, _, err := dnscontext.Generate(cfg)
			if err != nil {
				log.Fatal(err)
			}
			a := dnscontext.NewAnalyzer().Analyze(ds)
			fs := a.Failures()
			fmt.Printf("%-7s %-7v %6.1f %6.1f %6.1f %6.1f %6.1f %9.1f %9.2f %9.2f %8.3f\n",
				fmt.Sprintf("%.1f%%", 100*loss), outage,
				100*a.Fraction(dnscontext.ClassN), 100*a.Fraction(dnscontext.ClassLC),
				100*a.Fraction(dnscontext.ClassP), 100*a.Fraction(dnscontext.ClassSC),
				100*a.Fraction(dnscontext.ClassR),
				100*a.BlockedFraction(), 100*fs.ServFailFraction(),
				100*fs.RetriedFraction(), fs.MeanAttempts())
		}
	}
}
