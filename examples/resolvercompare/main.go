// Resolvercompare reproduces §7 of the paper: it asks whether any of the
// four resolver platforms (the local ISP resolvers, Google, OpenDNS,
// Cloudflare) is "the best", comparing shared-cache hit rates, resolution
// delays behind R connections, and the throughput of the application
// transactions each platform's CDN mappings produce — including the
// Android connectivity-check artifact that skews Google's curve.
package main

import (
	"fmt"
	"log"
	"time"

	"dnscontext"
)

func main() {
	cfg := dnscontext.DefaultGeneratorConfig()
	cfg.Houses = 30
	cfg.Duration = 6 * time.Hour
	cfg.Seed = 7
	// Cloudflare users are rare (3.8% of houses); force a few so every
	// platform has data at this scale.
	cfg.CloudflareHouseProb = 0.15

	ds, eco, err := dnscontext.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	a := dnscontext.NewAnalyzer().Analyze(ds)
	rp := a.ResolverPerformance(eco.Profiles)

	fmt.Println("Is any resolver platform 'the best'? (paper §7: no clear winner)")
	fmt.Println()
	fmt.Printf("%-12s %10s %14s %16s\n", "Platform", "Hit rate", "R delay med", "Throughput med")
	for _, p := range eco.Profiles {
		hr, ok := rp.HitRate[p.ID]
		if !ok {
			continue
		}
		rdelay, tput := "-", "-"
		if e := rp.RDelays[p.ID]; e != nil && e.N() > 0 {
			rdelay = fmt.Sprintf("%.1f ms", e.Median())
		}
		if e := rp.Throughput[p.ID]; e != nil && e.N() > 0 {
			tput = fmt.Sprintf("%.0f kbps", e.Median()/1000)
		}
		fmt.Printf("%-12s %9.1f%% %14s %16s\n", p.ID, 100*hr, rdelay, tput)
	}
	fmt.Println()
	fmt.Printf("Google's blocked connections include %.1f%% connectivity checks\n", 100*rp.GoogleCCFraction)
	if rp.GoogleNoCC.N() > 0 && rp.Throughput[dnscontext.PlatformGoogle] != nil {
		with := rp.Throughput[dnscontext.PlatformGoogle].Median()
		without := rp.GoogleNoCC.Median()
		fmt.Printf("Google throughput median: %.0f kbps with probes, %.0f kbps without (the Fig. 3 artifact)\n",
			with/1000, without/1000)
	}
	fmt.Println()
	fmt.Println("Conclusion, as in the paper: the metrics conflict — high hit rate (Cloudflare),")
	fmt.Println("low delay (local ISP), strong tails (Google) — so no platform dominates.")
}
