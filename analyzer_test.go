package dnscontext_test

// Tests for the Analyzer API: functional options, equivalence with the
// legacy Analyze entry point, worker-count determinism through the
// public facade, and context cancellation.

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"dnscontext"
)

func generateTiny(t *testing.T, seed uint64) *dnscontext.Dataset {
	t.Helper()
	ds, _, err := dnscontext.Generate(tinyConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAnalyzerOptionsApply(t *testing.T) {
	an := dnscontext.NewAnalyzer(
		dnscontext.WithBlockThreshold(42*time.Millisecond),
		dnscontext.WithKneeThreshold(7*time.Millisecond),
		dnscontext.WithSCRMinSamples(123),
		dnscontext.WithDefaultSCThreshold(9*time.Millisecond),
		dnscontext.WithPairing(dnscontext.PairRandom),
		dnscontext.WithSeed(99),
		dnscontext.WithWorkers(3),
		dnscontext.WithInsignificance(30*time.Millisecond, 0.02),
	)
	got := an.Options()
	want := dnscontext.DefaultOptions()
	want.BlockThreshold = 42 * time.Millisecond
	want.KneeThreshold = 7 * time.Millisecond
	want.SCRMinSamples = 123
	want.DefaultSCThreshold = 9 * time.Millisecond
	want.Pairing = dnscontext.PairRandom
	want.Seed = 99
	want.Workers = 3
	want.InsignificantAbs = 30 * time.Millisecond
	want.InsignificantRel = 0.02
	if got != want {
		t.Fatalf("Options() = %+v, want %+v", got, want)
	}

	// WithOptions seeds the whole struct; later options still win.
	an = dnscontext.NewAnalyzer(dnscontext.WithOptions(want), dnscontext.WithWorkers(5))
	if an.Options().Workers != 5 || an.Options().BlockThreshold != want.BlockThreshold {
		t.Fatalf("WithOptions composition broken: %+v", an.Options())
	}
}

// TestAnalyzerMatchesLegacyAnalyze: an Analyzer built from functional
// options and one built from an assembled Options struct (the form the
// removed Analyze(ds, Options) function took) agree on the same trace.
func TestAnalyzerMatchesLegacyAnalyze(t *testing.T) {
	opts := dnscontext.DefaultOptions()
	opts.SCRMinSamples = 100

	a := dnscontext.NewAnalyzer(dnscontext.WithSCRMinSamples(100)).Analyze(generateTiny(t, 11))
	b, err := dnscontext.NewAnalyzer(dnscontext.WithOptions(opts)).AnalyzeContext(context.Background(), generateTiny(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Paired, b.Paired) || !reflect.DeepEqual(a.Thresholds, b.Thresholds) {
		t.Fatal("functional options and WithOptions disagree on the same trace")
	}
}

// TestAnalyzerWorkerDeterminism is the public half of the ISSUE's
// determinism gate: identical Paired, Thresholds, and Table 2 fractions
// for workers 1, 2 and 8 on the same SmallGeneratorConfig trace.
func TestAnalyzerWorkerDeterminism(t *testing.T) {
	ref := dnscontext.NewAnalyzer(dnscontext.WithWorkers(1)).Analyze(generateTiny(t, 4))
	for _, workers := range []int{2, 8} {
		got := dnscontext.NewAnalyzer(dnscontext.WithWorkers(workers)).Analyze(generateTiny(t, 4))
		if !reflect.DeepEqual(got.Paired, ref.Paired) {
			t.Fatalf("workers=%d: Paired differs", workers)
		}
		if !reflect.DeepEqual(got.Thresholds, ref.Thresholds) {
			t.Fatalf("workers=%d: Thresholds differ", workers)
		}
		if !reflect.DeepEqual(got.Table2(), ref.Table2()) {
			t.Fatalf("workers=%d: Table 2 differs", workers)
		}
	}
}

func TestAnalyzerContextCancellation(t *testing.T) {
	ds := generateTiny(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := dnscontext.NewAnalyzer().AnalyzeContext(ctx, ds)
	if a != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled AnalyzeContext = (%v, %v), want (nil, context.Canceled)", a, err)
	}

	a, err = dnscontext.NewAnalyzer().AnalyzeContext(context.Background(), ds)
	if err != nil || a == nil {
		t.Fatalf("AnalyzeContext = (%v, %v)", a, err)
	}
}
