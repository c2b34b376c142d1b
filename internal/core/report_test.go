package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"
	"time"

	"dnscontext/internal/households"
)

// TestReportDeterministicUnderConcurrency: Report computes its sections
// concurrently, so its bytes must not depend on the worker count or on
// GOMAXPROCS — each must reproduce the golden report hash — and two
// Reports running at once on one fresh Analysis, racing on the shared
// once-guarded inputs, must both render it too.
func TestReportDeterministicUnderConcurrency(t *testing.T) {
	cfg := households.SmallConfig(7)
	cfg.Houses = 8
	cfg.Duration = time.Hour
	cfg.Warmup = 30 * time.Minute
	ds, eco, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenHashes[PairMostRecent].report
	render := func(a *Analysis) ([]byte, error) {
		var buf bytes.Buffer
		err := a.Report(&buf, eco.Profiles)
		return buf.Bytes(), err
	}
	hash := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 8} {
			opts := DefaultOptions()
			opts.SCRMinSamples = 50
			opts.Workers = workers
			a := analyzeCopy(t, ds, opts)
			label := fmt.Sprintf("GOMAXPROCS=%d workers=%d", procs, workers)

			var wg sync.WaitGroup
			reports := make([][]byte, 2)
			errs := make([]error, 2)
			for i := range reports {
				wg.Add(1)
				go func() {
					defer wg.Done()
					reports[i], errs[i] = render(a)
				}()
			}
			wg.Wait()
			for i, rep := range reports {
				if errs[i] != nil {
					t.Fatalf("%s: concurrent report %d: %v", label, i, errs[i])
				}
				if got := hash(rep); got != want {
					t.Fatalf("%s: concurrent report %d hash %#016x, want %#016x", label, i, got, want)
				}
			}
			rep, err := render(a)
			if err != nil {
				t.Fatal(err)
			}
			if got := hash(rep); got != want {
				t.Fatalf("%s: report hash %#016x, want %#016x", label, got, want)
			}
		}
	}
}

// BenchmarkReport measures the full text report of a 50-house, 6-hour
// window at the default worker count.
func BenchmarkReport(b *testing.B) {
	cfg := households.DefaultConfig()
	cfg.Houses = 50
	cfg.Duration = 6 * time.Hour
	ds, eco, err := households.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	a := mustAnalyze(b, ds, DefaultOptions())
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := a.Report(&buf, eco.Profiles); err != nil {
			b.Fatal(err)
		}
	}
}
