package obs_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dnscontext"
	"dnscontext/internal/obs"
)

// TestObservabilityDeterminism proves the no-feedback rule end to end:
// generation and analysis produce bit-identical outputs with metrics and
// tracing fully enabled or fully disabled, at every worker count. The
// fault profile is non-zero so the retry/timeout counters actually fire.
func TestObservabilityDeterminism(t *testing.T) {
	type variant struct {
		name     string
		observed bool
		workers  int
	}
	variants := []variant{
		{"off-workers1", false, 1},
		{"on-workers1", true, 1},
		{"off-workers8", false, 8},
		{"on-workers8", true, 8},
	}

	run := func(v variant) (report, dnsTSV, connTSV []byte, reg *obs.Registry, tr *obs.Tracer) {
		cfg := dnscontext.SmallGeneratorConfig(7)
		cfg.Houses = 6
		cfg.Duration = 2 * time.Hour
		cfg.Warmup = time.Hour
		cfg.Faults.Loss = 0.01
		if v.observed {
			reg = obs.NewRegistry()
			tr = obs.NewTracer()
			cfg.Metrics = reg
		}
		ds, eco, err := dnscontext.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := dnscontext.DefaultOptions()
		opts.Workers = v.workers
		opts.Metrics = reg
		opts.Trace = tr
		a := dnscontext.NewAnalyzer(dnscontext.WithOptions(opts)).Analyze(ds)

		var rep bytes.Buffer
		if err := a.Report(&rep, eco.Profiles); err != nil {
			t.Fatal(err)
		}
		var dnsBuf, connBuf bytes.Buffer
		if err := dnscontext.WriteDNS(&dnsBuf, ds.DNS); err != nil {
			t.Fatal(err)
		}
		if err := dnscontext.WriteConns(&connBuf, ds.Conns); err != nil {
			t.Fatal(err)
		}
		return rep.Bytes(), dnsBuf.Bytes(), connBuf.Bytes(), reg, tr
	}

	baseRep, baseDNS, baseConn, _, _ := run(variants[0])
	if len(baseDNS) == 0 || len(baseConn) == 0 {
		t.Fatal("baseline run produced empty datasets")
	}
	for _, v := range variants[1:] {
		rep, dns, conn, reg, tr := run(v)
		if !bytes.Equal(rep, baseRep) {
			t.Errorf("%s: report differs from baseline", v.name)
		}
		if !bytes.Equal(dns, baseDNS) {
			t.Errorf("%s: DNS dataset differs from baseline", v.name)
		}
		if !bytes.Equal(conn, baseConn) {
			t.Errorf("%s: connection dataset differs from baseline", v.name)
		}
		if !v.observed {
			continue
		}
		// The observed variants must also have actually observed something
		// — otherwise this test proves nothing.
		snap := reg.Snapshot()
		var lookups float64
		for _, fam := range snap.Families {
			if fam.Name != "dnsctx_resolver_lookups_total" {
				continue
			}
			for _, m := range fam.Metrics {
				lookups += m.Value
			}
		}
		if lookups == 0 {
			t.Errorf("%s: no resolver lookups recorded", v.name)
		}
		tl := tr.Timeline()
		if len(tl.Phases) == 0 {
			t.Errorf("%s: tracer recorded no phases", v.name)
		}
		if tl.Shards.Count == 0 {
			t.Errorf("%s: tracer recorded no shards", v.name)
		}
	}
}

// TestObservedSnapshotsAreDeterministic runs the same observed workload
// twice and requires byte-identical Prometheus exposition for the
// simulation-driven counter families (timing-derived families are
// excluded: wall-clock histograms legitimately vary between runs).
func TestObservedSnapshotsAreDeterministic(t *testing.T) {
	expo := func() []byte {
		cfg := dnscontext.SmallGeneratorConfig(11)
		cfg.Houses = 4
		cfg.Duration = time.Hour
		cfg.Warmup = 30 * time.Minute
		cfg.Faults.Loss = 0.02
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		if _, _, err := dnscontext.Generate(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		snap := reg.Snapshot()
		for _, fam := range snap.Families {
			if fam.Kind != obs.KindCounter.String() {
				continue
			}
			for _, m := range fam.Metrics {
				fmt.Fprintf(&buf, "%s%v %v\n", fam.Name, m.Labels, m.Value)
			}
		}
		return buf.Bytes()
	}
	a, b := expo(), expo()
	if len(a) == 0 {
		t.Fatal("no counter families in snapshot")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("counter snapshots differ between identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}
