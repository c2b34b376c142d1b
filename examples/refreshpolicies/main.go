// Refreshpolicies explores the paper's closing open question (§8): the
// refresh-all cache reaches a 96.6% hit rate at ~144x the query cost —
// can a smarter policy get most of the hit rate at a fraction of the
// cost? This example sweeps idle-bounded and popularity-gated refresh
// policies between the paper's two extremes.
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
	cfg.Duration = 12 * time.Hour
	cfg.Seed = 10

	ds, _, err := dnscontext.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	a := dnscontext.NewAnalyzer().Analyze(ds)

	rows := a.CompareRefreshPolicies(10*time.Second,
		dnscontext.PolicyPopular(3, 30*time.Minute),
		dnscontext.PolicyPopular(2, 2*time.Hour),
		dnscontext.PolicyIdleBounded(15*time.Minute),
		dnscontext.PolicyIdleBounded(time.Hour),
		dnscontext.PolicyIdleBounded(6*time.Hour),
	)

	base := rows[0].Result.Lookups // the standard cache's lookup budget
	fmt.Println("The paper's open question: the hit rate of refresh-all at the cost of standard?")
	fmt.Println()
	fmt.Printf("%-26s %10s %12s %12s %12s\n", "Policy", "Hit rate", "Lookups", "vs standard", "Lookups/s/house")
	for _, row := range rows {
		mult := float64(row.Result.Lookups) / float64(base)
		fmt.Printf("%-26s %9.1f%% %12d %11.1fx %15.3f\n",
			row.Policy.Label, 100*row.Result.HitRate, row.Result.Lookups, mult,
			row.Result.LookupsPerSecPerHouse)
	}
	fmt.Println()
	fmt.Println("Reading the sweep: bounding refresh by recent use captures most of the")
	fmt.Println("predictability the paper observed, at a small multiple of the standard")
	fmt.Println("cache's query load — the gap between the extremes is where a deployable")
	fmt.Println("policy lives.")
}
