package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimesNestedSpans(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "bench.pass", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "core.Analyze", Start: ms(10), End: ms(60)},
		{ID: 2, Parent: 1, Name: "core.phase.sort", Start: ms(10), End: ms(20)},
		{ID: 3, Parent: 1, Name: "core.phase.classify", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 0, Name: "trace.ReadDNS", Start: ms(60), End: ms(90)},
	}
	got := SelfTimes(spans)
	// bench: 100 - (50 + 30); core: Analyze 50-40 plus its phases 10+30;
	// trace: 30.
	want := map[string]float64{"bench": 0.020, "core": 0.050, "trace": 0.030}
	for layer, w := range want {
		if !near(got[layer], w) {
			t.Errorf("%s self = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestSelfTimesConcurrentSpans(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "core.Analyze", Start: ms(0), End: ms(100)},
		// shard overlaps intern and thresholds: the parent loses the
		// union of its children (10..70), not their sum.
		{ID: 1, Parent: 0, Name: "core.phase.shard", Start: ms(10), End: ms(50)},
		{ID: 2, Parent: 0, Name: "core.phase.intern", Start: ms(20), End: ms(40)},
		{ID: 3, Parent: 0, Name: "core.phase.thresholds", Start: ms(40), End: ms(70)},
		// A child running past its parent is clipped for the parent.
		{ID: 4, Parent: -1, Name: "trace.WriteDNS", Start: ms(200), End: ms(210)},
		{ID: 5, Parent: 4, Name: "households.Generate", Start: ms(205), End: ms(230)},
	}
	got := SelfTimes(spans)
	// core: Analyze 100-60, plus each concurrent phase in full 40+20+30.
	if w := 0.130; !near(got["core"], w) {
		t.Errorf("core self = %v, want %v", got["core"], w)
	}
	if w := 0.005; !near(got["trace"], w) {
		t.Errorf("trace self = %v, want %v", got["trace"], w)
	}
	if w := 0.025; !near(got["households"], w) {
		t.Errorf("households self = %v, want %v", got["households"], w)
	}
}

func TestRecorderNestsTimelineAndSplitsPasses(t *testing.T) {
	rec := NewRecorder()
	for pass := 0; pass < 2; pass++ {
		root := rec.Begin("bench.pass", -1)
		c := rec.Begin("trace.ReadDNS", root.ID())
		c.End()
		root.End()
	}
	if got := passSpans(rec.spans, 1); len(got) != 2 || got[0].ID != 2 || got[1].Parent != 2 {
		t.Fatalf("pass 1 spans = %+v", got)
	}
	var nilRec *Recorder
	c := nilRec.Begin("core.Analyze", -1)
	if s, a, g := c.End(); s != 0 || a != 0 || g != 0 || c.ID() != -1 {
		t.Fatalf("nil recorder recorded a call: %v %v %v id %d", s, a, g, c.ID())
	}
}

// jsonl builds scan output lines as the bulk encoder writes them.
func jsonl(lines ...string) *strings.Reader {
	return strings.NewReader(strings.Join(lines, "\n") + "\n")
}

func TestCheckScanCountsFailures(t *testing.T) {
	feed := []string{"a.example", "b.example", "void.miss1.example", "c.example", "d.example"}
	exists := func(name string) bool { return !strings.HasPrefix(name, "void.") }
	out := jsonl(
		`{"i":0,"name":"a.example","type":"A","status":"NOERROR","rcode":0,"ms":1.500,"attempts":1}`,
		`{"i":1,"name":"b.example","type":"A","status":"NOERROR","rcode":0,"ms":2.000,"attempts":1}`,
		`{"i":1,"name":"b.example","type":"A","status":"NOERROR","rcode":0,"ms":2.000,"attempts":1}`, // duplicate
		`{"i":2,"name":"void.miss1.example","type":"A","status":"NXDOMAIN","rcode":3,"ms":1.000,"attempts":1}`,
		// index 3 missing
		`{"i":4,"name":"d.example","type":"A","status":"TIMEOUT","rcode":0,"ms":900.000,"attempts":6,"error":"timeout, gave up"}`,
		`{"i":9,"name":"x.example","type":"A","status":"NOERROR","rcode":0,"ms":1.000,"attempts":1}`, // not a feed index
	)
	var lat []float64
	failed, err := newScanChecker(2).check(out, feed, exists, func(ms float64) { lat = append(lat, ms) })
	if err != nil {
		t.Fatal(err)
	}
	// duplicate 1, missing 3, timeout 4, stray 9.
	if failed != 4 {
		t.Errorf("failed = %d, want 4", failed)
	}
	if want := []float64{1.5, 2, 1, 900}; fmt.Sprint(lat) != fmt.Sprint(want) {
		t.Errorf("latencies = %v, want %v", lat, want)
	}
}

func TestCheckScanStatusFollowsZone(t *testing.T) {
	feed := []string{"a.example", "void.miss1.example", "b.example"}
	exists := func(name string) bool { return !strings.HasPrefix(name, "void.") }
	out := jsonl(
		`{"i":0,"name":"a.example","type":"A","status":"NXDOMAIN","rcode":3,"ms":1.000,"attempts":1}`, // exists: wants NOERROR
		`{"i":1,"name":"void.miss1.example","type":"A","status":"NXDOMAIN","rcode":3,"ms":1.000,"attempts":1}`,
		`{"i":2,"name":"c.example","type":"A","status":"NOERROR","rcode":0,"ms":1.000,"attempts":1}`, // wrong name
	)
	k := newScanChecker(len(feed))
	k.bad[0] = true // state left from an earlier check must not count
	failed, err := k.check(out, feed, exists, func(float64) {})
	if err != nil {
		t.Fatal(err)
	}
	if failed != 2 {
		t.Errorf("failed = %d, want 2", failed)
	}
}

func TestQuantiles(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	var xs []float64
	for i := 1; i <= 30; i++ {
		xs = append(xs, float64(i))
	}
	if q := tenBeyond(xs); q != 20 {
		t.Errorf("tenBeyond(1..30) = %v, want 20", q)
	}
	if q := tenBeyond(xs[:20]); q != 10.5 {
		t.Errorf("tenBeyond(1..20) = %v, want the median 10.5", q)
	}
	h, other := newLatencyHist(), newLatencyHist()
	for i := 1; i <= 100; i++ {
		h.add(float64(i) / 10) // 0.1 .. 10 ms
	}
	other.add(250.05) // a coarse bucket: 100 µs wide above 100 ms
	h.merge(other)
	if q := h.quantile(0.5); q != 5.1 {
		t.Errorf("p50 = %v, want 5.1", q)
	}
	if q := h.quantile(0.99); q != 10 {
		t.Errorf("p99 = %v, want 10", q)
	}
	if q := h.quantile(1); q != 250 {
		t.Errorf("max = %v, want 250", q)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the command must honour.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCommand: every workload BENCHMARK.json names
// runs, and the result line of each kind of run carries exactly the
// metrics it lists, with their units.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, err := newWorkload(w.Name, 1, t.TempDir()); err != nil {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames)
	}

	check := func(kind string, specs []metricSpec, listed map[string]string) {
		res := &result{attempted: 1, metrics: map[string]float64{}}
		for _, s := range specs {
			res.metrics[s.name] = 1
		}
		b, err := resultLine(res, specs)
		if err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(b, &line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Errorf("%s result line lacks correct/attempted/failed: %s", kind, b)
		}
		var printed, want []string
		for name, v := range line.Metrics {
			printed = append(printed, name+" "+v.Unit)
		}
		for name, unit := range listed {
			want = append(want, name+" "+unit)
		}
		sort.Strings(printed)
		sort.Strings(want)
		if strings.Join(printed, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s run prints\n%s\nBENCHMARK.json lists\n%s", kind, strings.Join(printed, "\n"), strings.Join(want, "\n"))
		}
	}
	e2e := map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("timed", endToEnd, e2e)
	layers := map[string]string{}
	for _, m := range bj.PerLayer {
		layers[m.Name] = m.Unit
	}
	check("traced", perLayer, layers)
	if e2e["setup_s"] != "s" {
		t.Errorf("setup_s missing from end_to_end")
	}
}

func TestPinsParse(t *testing.T) {
	pt := pins()
	if len(pt.generate) == 0 || len(pt.analyze) == 0 {
		t.Fatal("pins.txt pins no seed")
	}
	for seed, h := range pt.generate {
		if len(h) != 32 {
			t.Errorf("generate seed %d: bad pin %q", seed, h)
		}
	}
	for seed, p := range pt.analyze {
		if len(p.tsv) != 32 || p.digest == 0 {
			t.Errorf("analyze seed %d: bad pin %+v", seed, p)
		}
		for i := 0; i < generateRotation; i++ {
			if _, ok := pt.generate[generateSeed(seed, i)]; !ok {
				t.Errorf("seed %d is pinned for analyze but not for generate pass %d", seed, i)
			}
		}
	}
}

func TestGenerateRotationSeedsAreDisjoint(t *testing.T) {
	seen := make(map[uint64]uint64)
	for s := uint64(0); s < 50; s++ {
		for i := 0; i < 2*generateRotation; i++ {
			g := generateSeed(s, i)
			if o, ok := seen[g]; ok && o != s {
				t.Fatalf("generator seed %d serves run seeds %d and %d", g, o, s)
			}
			seen[g] = s
		}
	}
}

func TestMemSamplerTracksPeak(t *testing.T) {
	m := startMemSampler()
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	time.Sleep(4 * memSampleEvery)
	peak := m.Stop()
	if peak < uint64(len(buf)) {
		t.Errorf("peak %d below the %d bytes held", peak, len(buf))
	}
	_ = buf[len(buf)-1]
}
