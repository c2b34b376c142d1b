// Pcappipeline demonstrates the packet-level path end to end, entirely in
// memory: a synthetic window is rendered as raw Ethernet/IP/UDP/TCP
// frames (real RFC 1035 DNS messages inside), the zeeklite monitor
// reconstructs the two datasets from those frames exactly as Bro did at
// the CCZ aggregation point, and the paper's analysis runs on the
// reconstruction. The event-level and packet-level classifications are
// compared at the end.
package main

import (
	"fmt"
	"log"
	"time"

	"dnscontext"
)

func main() {
	cfg := dnscontext.SmallGeneratorConfig(77)
	cfg.Houses = 6
	cfg.Duration = time.Hour
	cfg.Warmup = time.Hour

	ds, eco, err := dnscontext.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated:      %6d DNS transactions, %6d connections\n", len(ds.DNS), len(ds.Conns))

	// Render as wire frames and feed them straight into the monitor.
	mon := dnscontext.NewMonitor(dnscontext.DefaultMonitorOptions())
	frames, bytes := 0, 0
	err = dnscontext.Synthesize(ds, dnscontext.SynthOptions{MaxBytesPerConn: 32 << 10},
		func(ts time.Duration, frame []byte) error {
			frames++
			bytes += len(frame)
			mon.FeedFrame(ts, frame)
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesized:    %6d frames (%.1f MiB on the simulated wire)\n", frames, float64(bytes)/(1<<20))

	reconstructed := mon.Flush()
	fmt.Printf("reconstructed:  %6d DNS transactions, %6d connections (decode errors: %d)\n\n",
		len(reconstructed.DNS), len(reconstructed.Conns), mon.DecodeErrors)

	an := dnscontext.NewAnalyzer(dnscontext.WithSCRMinSamples(50))
	direct := an.Analyze(ds)
	viaWire := an.Analyze(reconstructed)

	fmt.Println("Table 2 classification, event path vs packet path:")
	fmt.Printf("%-6s %12s %12s\n", "Class", "direct", "via wire")
	for _, c := range []dnscontext.Class{dnscontext.ClassN, dnscontext.ClassLC,
		dnscontext.ClassP, dnscontext.ClassSC, dnscontext.ClassR} {
		fmt.Printf("%-6s %11.1f%% %11.1f%%\n", c, 100*direct.Fraction(c), 100*viaWire.Fraction(c))
	}
	_ = eco
}
