package trace_test

import (
	"testing"

	"dnscontext/internal/households"
	"dnscontext/internal/trace"
)

// TestWriteTSVMatchesReferenceOnGeneratedDays holds the encoders to the
// fmt-based reference writers over whole generated windows: one
// healthy, one under packet loss (retries, SERVFAILs, TCP fallback).
func TestWriteTSVMatchesReferenceOnGeneratedDays(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		cfg := households.SmallConfig(seed)
		if seed == 11 {
			cfg.Faults.Loss = 0.05
			cfg.Faults.TruncateOver = 1
		}
		ds, _, err := households.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.DNS) == 0 || len(ds.Conns) == 0 {
			t.Fatalf("seed %d: empty window", seed)
		}
		trace.AssertSameDNS(t, ds.DNS)
		trace.AssertSameConns(t, ds.Conns)
	}
}
