package dnscontext

// BenchmarkAnalyzeStream is the PR 6 out-of-core record: the analyzer
// fed from on-disk TSV partitions, whole-trace ingestion versus a
// memory budget ~1/16th of the trace's resident footprint (so the spill
// path carries >90% of the records). Each variant reports throughput
// and a sampled peak_heap_bytes — the pair BENCH_PR6.json tracks. The
// streamed run trades throughput for a peak heap that scales with the
// budget instead of the trace; both produce the identical digest.

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// streamBenchState materializes the bench trace as the TSV files a
// capture pipeline would hand the analyzer, then lets the in-memory
// dataset go, so each variant's heap holds only what its ingestion
// strategy retains.
var streamBenchState struct {
	once     sync.Once
	dir      string
	records  int
	resident int64
	digest   uint64
	err      error
}

func streamBenchTrace(b *testing.B) (dir string, records int, resident int64, digest uint64) {
	b.Helper()
	s := &streamBenchState
	s.once.Do(func() {
		cfg := DefaultGeneratorConfig()
		cfg.Houses = 100
		cfg.Duration = 24 * time.Hour
		ds, _, err := Generate(cfg)
		if err != nil {
			s.err = err
			return
		}
		s.records = len(ds.DNS) + len(ds.Conns)
		s.resident = residentBytes(ds)
		if s.dir, err = os.MkdirTemp("", "dnsctx-bench-trace-*"); err != nil {
			s.err = err
			return
		}
		write := func(name string, fn func(*os.File) error) {
			if s.err != nil {
				return
			}
			f, err := os.Create(filepath.Join(s.dir, name))
			if err != nil {
				s.err = err
				return
			}
			defer f.Close()
			s.err = fn(f)
		}
		write("part-000.dns.tsv", func(f *os.File) error { return WriteDNS(f, ds.DNS) })
		write("part-000.conn.tsv", func(f *os.File) error { return WriteConns(f, ds.Conns) })
		if s.err != nil {
			return
		}
		// The digest both variants must reproduce, computed from the
		// serialized trace (TSV timestamps are microsecond-grained).
		a, err := NewAnalyzer().AnalyzeSource(context.Background(),
			NewDirSource(s.dir, StrictPolicy()))
		if err != nil {
			s.err = err
			return
		}
		s.digest = a.Digest()
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.dir, s.records, s.resident, s.digest
}

// residentBytes mirrors the analyzer's internal retained-bytes
// accounting closely enough to size a budget that forces spilling.
func residentBytes(ds *Dataset) int64 {
	var n int64
	for i := range ds.DNS {
		n += 120 + int64(len(ds.DNS[i].Query)) + 24*int64(len(ds.DNS[i].Answers))
	}
	n += 80 * int64(len(ds.Conns))
	return n
}

// heapSampler polls the runtime heap while a benchmark body runs and
// records the high-water mark.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > s.peak.Load() {
				s.peak.Store(ms.HeapAlloc)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) peakBytes() uint64 {
	close(s.stop)
	<-s.done
	return s.peak.Load()
}

func BenchmarkAnalyzeStream(b *testing.B) {
	dir, records, resident, digest := streamBenchTrace(b)
	variants := []struct {
		name   string
		budget int64
	}{
		{"inmemory", 0},
		{"budget=1/16", resident / 16},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			an := NewAnalyzer(WithMemoryBudget(v.budget))
			src := NewDirSource(dir, StrictPolicy())
			var a *Analysis
			runtime.GC()
			sampler := startHeapSampler()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				var err error
				a, err = an.AnalyzeSource(context.Background(), src)
				if err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			peak := sampler.peakBytes()
			if a.Digest() != digest {
				b.Fatalf("digest %#016x, want %#016x", a.Digest(), digest)
			}
			b.ReportMetric(float64(peak), "peak_heap_bytes")
			b.ReportMetric(float64(records)*float64(b.N)/elapsed.Seconds(), "records_per_sec")
			if v.budget > 0 {
				b.ReportMetric(float64(resident)/float64(v.budget), "trace_to_budget_x")
			}
		})
	}
}
