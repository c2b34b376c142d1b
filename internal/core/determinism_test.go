package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"dnscontext/internal/households"
	"dnscontext/internal/netsim"
	"dnscontext/internal/trace"
)

// determinismTrace generates one small trace per test run; callers must
// not mutate it beyond what Analyze itself does (time-sorting).
func determinismTrace(t *testing.T) *trace.Dataset {
	t.Helper()
	cfg := households.SmallConfig(7)
	cfg.Houses = 8
	cfg.Duration = time.Hour
	cfg.Warmup = 30 * time.Minute
	ds, _, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// analyzeCopy runs the pipeline on a private copy of ds, so different
// worker counts can't observe each other through the shared in-place
// sort.
func analyzeCopy(t testing.TB, ds *trace.Dataset, opts Options) *Analysis {
	cp := &trace.Dataset{
		DNS:   append([]trace.DNSRecord(nil), ds.DNS...),
		Conns: append([]trace.ConnRecord(nil), ds.Conns...),
	}
	return mustAnalyze(t, cp, opts)
}

// TestAnalyzeDeterministicAcrossWorkers is the ISSUE's determinism gate:
// the sharded pipeline must produce bit-identical results for every
// worker count, for both pairing policies.
func TestAnalyzeDeterministicAcrossWorkers(t *testing.T) {
	ds := determinismTrace(t)
	for _, pairing := range []PairingPolicy{PairMostRecent, PairRandom} {
		opts := DefaultOptions()
		opts.Pairing = pairing
		opts.SCRMinSamples = 50
		opts.Workers = 1
		ref := analyzeCopy(t, ds, opts)

		for _, workers := range []int{2, 8} {
			opts.Workers = workers
			got := analyzeCopy(t, ds, opts)

			if !reflect.DeepEqual(got.Paired, ref.Paired) {
				t.Fatalf("pairing=%v workers=%d: Paired differs from 1-worker run", pairing, workers)
			}
			if !reflect.DeepEqual(got.DNSUsed, ref.DNSUsed) {
				t.Fatalf("pairing=%v workers=%d: DNSUsed differs", pairing, workers)
			}
			if !reflect.DeepEqual(got.Thresholds, ref.Thresholds) {
				t.Fatalf("pairing=%v workers=%d: Thresholds differ: %v vs %v",
					pairing, workers, got.Thresholds, ref.Thresholds)
			}
			if !reflect.DeepEqual(got.Table2(), ref.Table2()) {
				t.Fatalf("pairing=%v workers=%d: Table 2 differs: %+v vs %+v",
					pairing, workers, got.Table2(), ref.Table2())
			}
			for c := ClassN; c < numClasses; c++ {
				if got.Fraction(c) != ref.Fraction(c) {
					t.Fatalf("pairing=%v workers=%d: class %v fraction %v != %v",
						pairing, workers, c, got.Fraction(c), ref.Fraction(c))
				}
			}
		}
	}
}

// TestDownstreamDeterministicAcrossWorkers covers the parallelized
// sweeps that consume an Analysis: Figure 1, the whole-house what-if,
// and the refresh-policy grid.
func TestDownstreamDeterministicAcrossWorkers(t *testing.T) {
	ds := determinismTrace(t)
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	opts.Workers = 1
	ref := analyzeCopy(t, ds, opts)
	refF1 := ref.Figure1()
	refWH := ref.WholeHouse()
	refGrid := ref.CompareRefreshPolicies(10*time.Second,
		PolicyIdleBounded(30*time.Minute), PolicyPopular(2, time.Hour))

	for _, workers := range []int{2, 8} {
		opts.Workers = workers
		got := analyzeCopy(t, ds, opts)
		f1 := got.Figure1()
		if !reflect.DeepEqual(f1.Gaps.Values(), refF1.Gaps.Values()) ||
			f1.FirstUseWithinKnee != refF1.FirstUseWithinKnee ||
			f1.FirstUseBeyondKnee != refF1.FirstUseBeyondKnee {
			t.Fatalf("workers=%d: Figure 1 differs", workers)
		}
		if wh := got.WholeHouse(); wh != refWH {
			t.Fatalf("workers=%d: WholeHouse %+v != %+v", workers, wh, refWH)
		}
		grid := got.CompareRefreshPolicies(10*time.Second,
			PolicyIdleBounded(30*time.Minute), PolicyPopular(2, time.Hour))
		if !reflect.DeepEqual(grid, refGrid) {
			t.Fatalf("workers=%d: refresh grid differs: %+v vs %+v", workers, grid, refGrid)
		}
	}
}

// faultedTrace generates a small trace with every fault knob nonzero, so
// the retry/backoff/outage paths all draw from the RNG streams.
func faultedTrace(t *testing.T) *trace.Dataset {
	t.Helper()
	cfg := households.SmallConfig(7)
	cfg.Houses = 8
	cfg.Duration = time.Hour
	cfg.Warmup = 30 * time.Minute
	cfg.Faults.Loss = 0.02
	cfg.Faults.ExtraJitter = 2 * time.Millisecond
	cfg.Faults.TruncateOver = 6
	cfg.Faults.StaleHold = time.Hour
	cfg.Faults.LocalOutages = []netsim.Window{
		{Start: 10 * time.Minute, End: 20 * time.Minute},
	}
	ds, _, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestFaultedAnalysisDeterministicAcrossWorkers extends the determinism
// gate to fault-injected traces: generation under a nonzero FaultProfile
// must be repeatable, and the analysis — including the failure tallies,
// which sum per-shard — must be bit-identical for every worker count.
func TestFaultedAnalysisDeterministicAcrossWorkers(t *testing.T) {
	ds := faultedTrace(t)
	ds2 := faultedTrace(t)
	if !reflect.DeepEqual(ds.DNS, ds2.DNS) || !reflect.DeepEqual(ds.Conns, ds2.Conns) {
		t.Fatal("two generations with identical faulted config differ")
	}

	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	opts.Workers = 1
	ref := analyzeCopy(t, ds, opts)
	refFS := ref.Failures()
	if !refFS.HasFailures() {
		t.Fatal("faulted trace produced no retries/servfails; fault paths untested")
	}

	for _, workers := range []int{2, 8} {
		opts.Workers = workers
		got := analyzeCopy(t, ds, opts)
		if !reflect.DeepEqual(got.Paired, ref.Paired) {
			t.Fatalf("workers=%d: Paired differs under faults", workers)
		}
		if !reflect.DeepEqual(got.Thresholds, ref.Thresholds) {
			t.Fatalf("workers=%d: Thresholds differ under faults", workers)
		}
		if !reflect.DeepEqual(got.Table2(), ref.Table2()) {
			t.Fatalf("workers=%d: Table 2 differs under faults", workers)
		}
		if fs := got.Failures(); fs != refFS {
			t.Fatalf("workers=%d: failure stats %+v != %+v", workers, fs, refFS)
		}
	}
}

// TestZeroFaultConfigMatchesUnconfigured is the zero-cost invariant at
// the generator level: a Config with an explicitly zero FaultsConfig
// must yield the byte-identical dataset of one that never mentions
// faults.
func TestZeroFaultConfigMatchesUnconfigured(t *testing.T) {
	ref := determinismTrace(t)
	cfg := households.SmallConfig(7)
	cfg.Houses = 8
	cfg.Duration = time.Hour
	cfg.Warmup = 30 * time.Minute
	cfg.Faults = households.FaultsConfig{}
	ds, _, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.DNS, ref.DNS) || !reflect.DeepEqual(ds.Conns, ref.Conns) {
		t.Fatal("zero FaultsConfig changed the generated dataset")
	}
}

func TestAnalyzeContextCancelled(t *testing.T) {
	ds := determinismTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := AnalyzeContext(ctx, ds, DefaultOptions())
	if a != nil {
		t.Fatal("cancelled analysis returned a partial result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestAnalyzeContextCompletesUncancelled(t *testing.T) {
	ds := determinismTrace(t)
	a, err := AnalyzeContext(context.Background(), ds, DefaultOptions())
	if err != nil || a == nil {
		t.Fatalf("AnalyzeContext = (%v, %v)", a, err)
	}
	if got := mustAnalyze(t, ds, DefaultOptions()); !reflect.DeepEqual(got.Paired, a.Paired) {
		t.Fatal("Analyze and AnalyzeContext disagree")
	}
}

// TestCountMatchesScan pins the O(1) class counters to a recount of the
// per-connection classifications they replaced.
func TestCountMatchesScan(t *testing.T) {
	ds := determinismTrace(t)
	a := mustAnalyze(t, ds, DefaultOptions())
	var scan [numClasses]int
	for i := range a.Paired {
		scan[a.Paired[i].Class]++
	}
	total := 0
	for c := ClassN; c < numClasses; c++ {
		if a.Count(c) != scan[c] {
			t.Fatalf("Count(%v) = %d, scan says %d", c, a.Count(c), scan[c])
		}
		total += a.Count(c)
	}
	if total != len(a.Paired) {
		t.Fatalf("counts sum to %d, have %d connections", total, len(a.Paired))
	}
	if a.Count(numClasses) != 0 || a.Count(Class(200)) != 0 {
		t.Fatal("out-of-range class should count zero")
	}
}
