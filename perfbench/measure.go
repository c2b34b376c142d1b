package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Runtime probes read through runtime/metrics, which — unlike
// runtime.ReadMemStats — does not stop the world, so probing a call or
// sampling memory does not perturb the run being measured.

const (
	allocsMetric   = "/gc/heap/allocs:bytes"
	gcCPUMetric    = "/cpu/classes/gc/total:cpu-seconds"
	mappedMetric   = "/memory/classes/total:bytes"
	releasedMetric = "/memory/classes/heap/released:bytes"
)

// usage is the cumulative allocation and GC CPU of the process at one
// instant; the difference of two readings is what a call cost.
type usage struct {
	allocBytes float64
	gcCPU      float64
}

func readUsage() usage {
	s := []metrics.Sample{{Name: allocsMetric}, {Name: gcCPUMetric}}
	metrics.Read(s)
	return usage{allocBytes: float64(s[0].Value.Uint64()), gcCPU: s[1].Value.Float64()}
}

// residentBytes is the memory the Go runtime holds from the OS: every
// mapped byte minus heap pages already returned.
func residentBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// memSampler tracks the peak of residentBytes while it runs.
type memSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

// memSampleEvery is the sampling period. Resident memory moves in
// page-allocator chunks and is returned to the OS lazily, so a few
// milliseconds resolve its peak.
const memSampleEvery = 5 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	m.sample(newMemSamples())
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		s := newMemSamples()
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				m.sample(s)
			case <-m.stop:
				return
			}
		}
	}()
	return m
}

func newMemSamples() []metrics.Sample {
	return []metrics.Sample{{Name: mappedMetric}, {Name: releasedMetric}}
}

func (m *memSampler) sample(s []metrics.Sample) {
	v := residentBytes(s)
	for {
		old := m.peak.Load()
		if v <= old || m.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// Stop ends sampling, takes a last sample, and returns the peak.
func (m *memSampler) Stop() uint64 {
	close(m.stop)
	m.wg.Wait()
	m.sample(newMemSamples())
	return m.peak.Load()
}

// median returns the median of xs (the mean of the middle pair for an
// even count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tenBeyond is the highest percentile of xs with at least ten values
// beyond it: the 11th largest, or the median when there are fewer than
// 21 values and no percentile above it qualifies.
func tenBeyond(xs []float64) float64 {
	if len(xs) < 21 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)-11]
}

// latencyHist counts latencies in fixed buckets, so a run's latency
// record has one size however many queries it holds: 1 µs buckets up
// to 100 ms (the scan output's resolution), then 100 µs buckets up to
// 10 s, then one overflow bucket.
type latencyHist struct {
	counts []uint32
	n      int
}

const (
	histFine    = 100_000 // 1 µs buckets: [0, 100 ms)
	histCoarse  = 99_000  // 100 µs buckets: [100 ms, 10 s)
	histBuckets = histFine + histCoarse + 1
)

func newLatencyHist() *latencyHist { return &latencyHist{counts: make([]uint32, histBuckets)} }

func (h *latencyHist) add(ms float64) {
	us := int(math.Round(ms * 1000))
	b := us
	if us >= histFine {
		b = histFine + (us-histFine)/100
	}
	h.counts[min(max(b, 0), histBuckets-1)]++
	h.n++
}

// merge adds o's counts into h.
func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *latencyHist) reset() {
	clear(h.counts)
	h.n = 0
}

// quantile is the nearest-rank q-quantile in ms: the smallest bucket
// value with at least q·n latencies at or below it.
func (h *latencyHist) quantile(q float64) float64 {
	rank := uint64(math.Ceil(q * float64(h.n)))
	var seen uint64
	for b, c := range h.counts {
		seen += uint64(c)
		if seen >= rank && c > 0 {
			if b < histFine {
				return float64(b) / 1000
			}
			return float64(histFine+(b-histFine)*100) / 1000
		}
	}
	return math.NaN()
}
