// Prefetchstudy reproduces §5.2 of the paper: the economics of
// speculative DNS — how many lookups go unused, what fraction of
// speculative lookups pay off, how prefetched (P) connections differ from
// local-cache (LC) connections, and how often devices keep using records
// past their TTL.
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
	cfg.Duration = 8 * time.Hour
	cfg.Seed = 9

	ds, _, err := dnscontext.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	a := dnscontext.NewAnalyzer().Analyze(ds)

	pf := a.Prefetch()
	fmt.Println("=== The cost of speculation (paper §5.2) ===")
	fmt.Printf("DNS transactions:   %d\n", pf.TotalLookups)
	fmt.Printf("never used by any connection: %d (%.1f%%; paper: 37.8%%)\n",
		pf.UnusedLookups, 100*pf.UnusedFraction)
	fmt.Printf("if all unused lookups were speculative, %.1f%% of speculation paid off (paper: 22.3%%)\n\n",
		100*pf.SpeculativeUsedFraction)

	fmt.Println("=== The benefit: P connections pay no DNS cost ===")
	fmt.Printf("P  (prefetched, first use >100ms after lookup): %d (%.1f%% of conns; paper: 7.8%%)\n",
		a.Count(dnscontext.ClassP), 100*a.Fraction(dnscontext.ClassP))
	fmt.Printf("LC (previously used, locally cached):           %d (%.1f%% of conns; paper: 42.9%%)\n\n",
		a.Count(dnscontext.ClassLC), 100*a.Fraction(dnscontext.ClassLC))

	v := a.TTLViolations()
	fmt.Println("=== Lookup-to-use gaps and TTL violations ===")
	fmt.Printf("median gap, P:  %v (paper: 310 s — clicks come soon after the speculative lookup)\n",
		v.GapMedianP.Round(time.Second))
	fmt.Printf("median gap, LC: %v (paper: 1033 s — habitual destinations linger in caches)\n",
		v.GapMedianLC.Round(time.Second))
	fmt.Printf("LC conns on expired records: %.1f%% (paper: 22.2%%)\n", 100*v.LCExpiredFraction)
	fmt.Printf("P  conns on expired records: %.1f%% (paper: 12.4%%)\n", 100*v.PExpiredFraction)
	if v.Lateness.N() > 0 {
		fmt.Printf("violation lateness: %.0f%% beyond 30 s, median %.0f s (paper: 82%%, 890 s)\n",
			100*v.LatenessBeyond30s, v.Lateness.Median())
	}
}
