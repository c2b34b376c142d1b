package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dnscontext/internal/households"
	"dnscontext/internal/resolver"
	"dnscontext/internal/trace"
)

// paperScaleAnalysis runs the calibrated generator at the medium test
// scale and analyzes it once for the whole file.
var paperAnalysis struct {
	a        *Analysis
	ds       *trace.Dataset
	profiles []resolver.PlatformProfile
}

func analysisForPaperBands(t *testing.T) *Analysis {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-band tests are not -short")
	}
	if paperAnalysis.a == nil {
		cfg := households.DefaultConfig()
		cfg.Houses = 50
		ds, eco, err := households.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		paperAnalysis.ds = ds
		paperAnalysis.profiles = eco.Profiles
		paperAnalysis.a = mustAnalyze(t, ds, DefaultOptions())
	}
	return paperAnalysis.a
}

// within asserts got lies inside [lo, hi]; the bands are deliberately wide
// — the substrate is a simulator, and the claim is that the paper's
// qualitative shape holds, not its exact numbers.
func within(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %.3f outside [%.3f, %.3f]", name, got, lo, hi)
	}
}

func TestPaperBandTable2(t *testing.T) {
	a := analysisForPaperBands(t)
	within(t, "N fraction (paper 0.072)", a.Fraction(ClassN), 0.02, 0.14)
	within(t, "LC fraction (paper 0.429)", a.Fraction(ClassLC), 0.30, 0.55)
	within(t, "P fraction (paper 0.078)", a.Fraction(ClassP), 0.02, 0.14)
	within(t, "SC fraction (paper 0.263)", a.Fraction(ClassSC), 0.15, 0.38)
	within(t, "R fraction (paper 0.157)", a.Fraction(ClassR), 0.08, 0.28)
	within(t, "blocked (paper 0.421)", a.BlockedFraction(), 0.30, 0.55)
	within(t, "shared-cache hit rate (paper 0.626)", a.SharedCacheHitRate(), 0.45, 0.75)
	// The paper's headline: a majority of connections do not block on DNS.
	if free := a.Fraction(ClassN) + a.Fraction(ClassLC) + a.Fraction(ClassP); free < 0.5 {
		t.Errorf("only %.3f of connections avoid blocking; paper finds 0.579", free)
	}
}

func TestPaperBandFigure1(t *testing.T) {
	a := analysisForPaperBands(t)
	f1 := a.Figure1()
	if f1.FirstUseWithinKnee < 0.85 {
		t.Errorf("first-use within knee %.3f, paper 0.91", f1.FirstUseWithinKnee)
	}
	if f1.FirstUseBeyondKnee > 0.45 {
		t.Errorf("first-use beyond knee %.3f, paper 0.21", f1.FirstUseBeyondKnee)
	}
	if f1.FirstUseWithinKnee <= f1.FirstUseBeyondKnee {
		t.Error("knee does not separate first-use regimes")
	}
}

func TestPaperBandSection51(t *testing.T) {
	a := analysisForPaperBands(t)
	nd := a.NoDNS()
	within(t, "high-port share of N (paper 0.816)", nd.HighPortFraction, 0.55, 0.95)
	if nd.DoTConns != 0 {
		t.Errorf("DoT connections present: %d", nd.DoTConns)
	}
	within(t, "unpaired non-p2p (paper 0.013)", nd.UnpairedNonP2PFraction, 0, 0.05)
	unamb, _ := a.PairingAmbiguity()
	within(t, "single-candidate pairings (paper >0.82)", unamb, 0.70, 1.0)
}

func TestPaperBandSection52(t *testing.T) {
	a := analysisForPaperBands(t)
	v := a.TTLViolations()
	within(t, "LC expired use (paper 0.222)", v.LCExpiredFraction, 0.08, 0.35)
	within(t, "P expired use (paper 0.124)", v.PExpiredFraction, 0.04, 0.25)
	if v.PExpiredFraction >= v.LCExpiredFraction+0.05 {
		t.Errorf("P expired (%.3f) should not exceed LC expired (%.3f); paper finds P ~10pts lower",
			v.PExpiredFraction, v.LCExpiredFraction)
	}
	within(t, "violations beyond 30s (paper 0.82)", v.LatenessBeyond30s, 0.6, 1.0)
	if v.Lateness.N() > 0 {
		within(t, "violation lateness median s (paper 890)", v.Lateness.Median(), 100, 3000)
	}
	if v.GapMedianP >= v.GapMedianLC {
		t.Errorf("P gap median (%v) should be below LC gap median (%v), as in the paper (310s vs 1033s)",
			v.GapMedianP, v.GapMedianLC)
	}
	pf := a.Prefetch()
	within(t, "unused lookups (paper 0.378)", pf.UnusedFraction, 0.25, 0.50)
}

func TestPaperBandSection6(t *testing.T) {
	a := analysisForPaperBands(t)
	f2 := a.Figure2()
	within(t, "lookup delay median ms (paper 8.5)", f2.LookupDelays.Median(), 1.5, 25)
	within(t, "lookup delay p75 ms (paper 20)", f2.LookupDelays.Quantile(0.75), 8, 60)
	within(t, "lookups over 100ms (paper 0.033)", f2.LookupDelays.FractionAbove(100), 0.002, 0.10)
	within(t, "DNS >1% of transaction (paper 0.20)", f2.ContributionAll.FractionAbove(1), 0.08, 0.35)
	within(t, "DNS >=10% of transaction (paper 0.08)", f2.ContributionAll.FractionAbove(10), 0.02, 0.18)
	// R contributes more than SC.
	if f2.ContributionR.FractionAbove(1) <= f2.ContributionSC.FractionAbove(1) {
		t.Error("R contribution should exceed SC contribution")
	}
	sig := a.Significance()
	within(t, "both insignificant (paper 0.64)", sig.BothInsignificant, 0.45, 0.80)
	within(t, "both significant (paper 0.086)", sig.BothSignificant, 0.02, 0.20)
	within(t, "overall significant (paper 0.036)", sig.OverallSignificant, 0.01, 0.10)
}

func TestPaperBandTable1(t *testing.T) {
	a := analysisForPaperBands(t)
	rows := a.Table1(paperAnalysis.profiles)
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Platform.String()] = r
	}
	local, google := byName["Local"], byName["Google"]
	within(t, "Local lookup share (paper 0.728)", local.LookupsFraction, 0.60, 0.85)
	within(t, "Google lookup share (paper 0.129)", google.LookupsFraction, 0.08, 0.30)
	if local.LookupsFraction <= google.LookupsFraction {
		t.Error("Local must dominate Google")
	}
	within(t, "Local houses (paper 0.924)", local.HousesFraction, 0.85, 1.0)
	within(t, "Google houses (paper 0.835)", google.HousesFraction, 0.6, 1.0)
	// Conns and bytes roughly commensurate with lookups (paper's
	// observation).
	if diff := local.ConnsFraction - local.LookupsFraction; diff < -0.2 || diff > 0.2 {
		t.Errorf("Local conns share %.3f far from lookup share %.3f", local.ConnsFraction, local.LookupsFraction)
	}
}

func TestPaperBandSection7(t *testing.T) {
	a := analysisForPaperBands(t)
	rp := a.ResolverPerformance(paperAnalysis.profiles)
	local := rp.HitRate[resolver.PlatformLocal]
	google := rp.HitRate[resolver.PlatformGoogle]
	within(t, "Local SC hit rate (paper 0.712)", local, 0.55, 0.85)
	within(t, "Google SC hit rate (paper 0.23)", google, 0.05, 0.45)
	if google >= local {
		t.Error("Google hit rate should be far below Local (paper: 23% vs 71%)")
	}
	within(t, "Google cc share (paper 0.235)", rp.GoogleCCFraction, 0.08, 0.45)
	within(t, "non-Google cc share (paper 0.003)", rp.NonGoogleCCFraction, 0, 0.05)
	// R-delay ordering at the median: Local fastest.
	if lr, gr := rp.RDelays[resolver.PlatformLocal], rp.RDelays[resolver.PlatformGoogle]; lr != nil && gr != nil {
		if lr.Median() >= gr.Median() {
			t.Errorf("Local R delay median (%.1f) should beat Google (%.1f)", lr.Median(), gr.Median())
		}
	}
}

func TestPaperBandSection8(t *testing.T) {
	a := analysisForPaperBands(t)
	wh := a.WholeHouse()
	within(t, "whole-house moved (paper 0.098)", wh.MovedFraction, 0.01, 0.15)
	if wh.SCBenefit <= 0 || wh.RBenefit <= 0 {
		t.Errorf("whole-house benefits must be positive: SC %.3f R %.3f", wh.SCBenefit, wh.RBenefit)
	}
	rf := a.RefreshSimulation(10 * time.Second)
	if rf.RefreshAll.HitRate <= rf.Standard.HitRate+0.1 {
		t.Errorf("refresh-all hit rate %.3f should far exceed standard %.3f (paper: 96.6 vs 61.0)",
			rf.RefreshAll.HitRate, rf.Standard.HitRate)
	}
	within(t, "refresh lookup multiplier (paper ~144x)", rf.LookupMultiplier, 30, 500)
	within(t, "standard hit rate (paper 0.61)", rf.Standard.HitRate, 0.35, 0.75)
	within(t, "refresh hit rate (paper 0.966)", rf.RefreshAll.HitRate, 0.75, 1.0)
}

func TestReportRendersEverySection(t *testing.T) {
	a := analysisForPaperBands(t)
	var buf bytes.Buffer
	if err := a.Report(&buf, paperAnalysis.profiles); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Fig 1", "Fig 2 (top)", "Fig 2 (bottom)",
		"Fig 3 (top)", "Fig 3 (bottom)", "Section 5.1", "Section 5.2",
		"Section 7", "Section 8", "refresh simulation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestReportPropagatesWriteErrors(t *testing.T) {
	a := analysisForPaperBands(t)
	if err := a.Report(failWriter{}, paperAnalysis.profiles); err == nil {
		t.Fatal("write error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = errFixed("write failed")

type errFixed string

func (e errFixed) Error() string { return string(e) }

// TestAblationBlockingThreshold mirrors the paper's footnote 5: the
// headline insight (most connections do not block) must be robust across
// blocking thresholds.
func TestAblationBlockingThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are not -short")
	}
	_ = analysisForPaperBands(t)
	for _, th := range []time.Duration{20 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 200 * time.Millisecond} {
		opts := DefaultOptions()
		opts.BlockThreshold = th
		a := mustAnalyze(t, paperAnalysis.ds, opts)
		free := a.Fraction(ClassN) + a.Fraction(ClassLC) + a.Fraction(ClassP)
		if free < 0.45 || free > 0.80 {
			t.Errorf("threshold %v: non-blocking fraction %.3f escapes the paper's regime", th, free)
		}
	}
}

// TestAblationPairingPolicy mirrors §4's robustness check: random pairing
// among fresh candidates must not change the headline classification.
func TestAblationPairingPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are not -short")
	}
	a := analysisForPaperBands(t)
	opts := DefaultOptions()
	opts.Pairing = PairRandom
	b := mustAnalyze(t, paperAnalysis.ds, opts)
	for c := ClassN; c < numClasses; c++ {
		if diff := a.Fraction(c) - b.Fraction(c); diff < -0.05 || diff > 0.05 {
			t.Errorf("class %v shifts by %.3f under random pairing", c, diff)
		}
	}
}

func TestExportFigureData(t *testing.T) {
	a := analysisForPaperBands(t)
	dir := t.TempDir()
	if err := a.ExportFigureData(dir, 50, paperAnalysis.profiles); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{
		"table1.csv", "table2.csv", "table3.csv",
		"fig1_gap_cdf.csv", "fig2_delay_cdf.csv", "fig2_contribution_cdf.csv",
		"fig3_rdelay_cdf.csv", "fig3_throughput_cdf.csv",
	} {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		lines := strings.Count(string(b), "\n")
		if lines < 2 {
			t.Errorf("%s has only %d lines", f, lines)
		}
	}
}

func TestReportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism check is not -short")
	}
	render := func() string {
		cfg := households.SmallConfig(123)
		cfg.Houses = 5
		cfg.Duration = time.Hour
		cfg.Warmup = time.Hour
		ds, eco, err := households.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.SCRMinSamples = 50
		a := mustAnalyze(t, ds, opts)
		var buf bytes.Buffer
		if err := a.Report(&buf, eco.Profiles); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("identical seeds produced different reports")
	}
}
