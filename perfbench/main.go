// Command perfbench is the repository's end-to-end benchmark. One
// process runs one workload — generate, analyze-resident, analyze-spill
// or scan-lossy — for a fixed wall budget, checks every output it
// produces, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}
//
// A timed run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) records a span around every public call the benchmark
// makes into a layer and prints the per-layer metrics. See README.md
// for what each workload and metric is for.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload analyze-resident --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// workload is one benchmark workload. setup builds the run's inputs
// and is called several times, each call replacing the previous
// inputs, so set-up time is a median; prepare then computes, untimed,
// whatever reference the output checks need; pass runs the measured
// work once and checks its output.
type workload interface {
	setup() error
	prepare() error
	pass(p *passCtx) passOut
	close()
}

// passCtx is what one pass records into. rec and layers are nil on
// untraced passes.
type passCtx struct {
	index  int
	rec    *Recorder
	root   int
	layers layerMetrics
}

// passOut is one pass's outcome.
type passOut struct {
	wall      time.Duration // the measured part: output checks excluded
	records   int           // records completed (trace records or scan queries)
	attempted int           // pipelines: 1 pass; scan: queries fed
	failed    int           // attempted items that errored or failed a check
	latency   *latencyHist  // per-query latencies; nil for pipeline passes
}

// pipelineUnit is the number of trace records a pipeline's latency is
// stated for.
const pipelineUnit = 100_000

// setupRepeats is how many times a run builds its inputs; setup_s is
// the median.
const setupRepeats = 3

var workloadNames = []string{"generate", "analyze-resident", "analyze-spill", "scan-lossy"}

func newWorkload(name string, seed uint64, dir string) (workload, error) {
	switch name {
	case "generate", "analyze-resident", "analyze-spill":
		return newPipeline(name, seed, dir), nil
	case "scan-lossy":
		return newScan(seed, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: generate, analyze-resident, analyze-spill or scan-lossy")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 15, "wall seconds to measure")
		traced  = flag.Int("trace", 0, "0: timed run printing end-to-end metrics; 1: traced run printing per-layer metrics")
		pin     = flag.String("pin", "", "print pinned output hashes for a seed range such as 1-100, then exit")
	)
	flag.Parse()
	if *pin != "" {
		if err := printPins(*pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	dir := filepath.Join(".bench_build", "work", *name)
	w, err := newWorkload(*name, *seed, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seconds, *traced == 1)
	w.close()
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	hw := stampHardware()
	fmt.Printf("hardware: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", hw.NProc, hw.GOMAXPROCS, hw.GoVersion, hw.CPU)
	fmt.Printf("workload=%s seed=%d trace=%d passes=%d\n", *name, *seed, *traced, res.passes)
	for _, line := range res.notes {
		fmt.Println(line)
	}
	fmt.Printf("fail_frac = %d/%d = %g\n", res.failed, res.attempted, float64(res.failed)/float64(max(res.attempted, 1)))
	specs := endToEnd
	if *traced == 1 {
		specs = perLayer
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := writeSpans(path, hw, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", len(res.spans), path)
	}
	for _, s := range specs {
		fmt.Printf("%-36s %20.6f %s\n", s.name, res.metrics[s.name], s.unit)
	}
	b, err := resultLine(res, specs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if res.failed > 0 {
		os.Exit(1)
	}
}

// resultLine renders the run's last line of output: correctness, the
// attempted and failed counts, and each metric in specs with its unit.
func resultLine(res *result, specs []metricSpec) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, make(map[string]value)}
	for _, s := range specs {
		v := res.metrics[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no pass completed; the run is already failed
		}
		out.Metrics[s.name] = value{v, s.unit}
	}
	return json.Marshal(out)
}

// result is what one run measured.
type result struct {
	passes            int
	attempted, failed int
	metrics           map[string]float64
	notes             []string
	spans             []Span
}

// run sets the workload up, then measures passes until the wall budget
// is spent. A timed run measures every pass untraced; a traced run
// alternates untraced and traced passes, takes the per-layer metrics
// from the traced ones, and compares the two kinds for the tracing
// overhead.
func run(w workload, seconds float64, traced bool) (*result, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	// Start every run from the same heap: set-up garbage collected and
	// its pages returned, so peak memory is the measured passes' own.
	runtime.GC()
	debug.FreeOSMemory()

	res := &result{metrics: map[string]float64{"setup_s": median(setups)}}
	var (
		rec         *Recorder
		walls       []float64 // untraced pass seconds
		tracedWalls []float64
		records     []int     // untraced passes' records
		rates       []float64 // untraced passes' records per second
		latencies   = newLatencyHist()
		perPass     []layerMetrics
	)
	if traced {
		rec = NewRecorder()
	}
	mem := startMemSampler()
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		tracedPass := traced && i%2 == 1
		if time.Since(start) >= budget && (!traced || len(tracedWalls) > 0) {
			break
		}
		p := &passCtx{index: i, root: -1}
		var root Call
		if tracedPass {
			p.rec, p.layers = rec, layerMetrics{}
			root = rec.Begin("bench.pass", -1)
			p.root = root.ID()
		}
		o := w.pass(p)
		root.End()
		res.passes++
		res.attempted += o.attempted
		res.failed += o.failed
		if tracedPass {
			tracedWalls = append(tracedWalls, o.wall.Seconds())
			perPass = append(perPass, p.layers)
			continue
		}
		if o.wall <= 0 {
			continue // failed before it finished; counted in failed
		}
		walls = append(walls, o.wall.Seconds())
		records = append(records, o.records)
		rates = append(rates, float64(o.records)/o.wall.Seconds())
		if o.latency != nil {
			latencies.merge(o.latency)
		}
	}
	peak := mem.Stop()

	if traced {
		res.spans = rec.spans
		// Self times are per traced pass, like every per-layer value.
		for i, lm := range perPass {
			for layer, s := range SelfTimes(passSpans(rec.spans, i)) {
				lm[layer+".self_s"] = s
			}
		}
		for _, spec := range perLayer {
			var xs []float64
			for _, lm := range perPass {
				xs = append(xs, lm[spec.name])
			}
			res.metrics[spec.name] = median(xs)
		}
		res.metrics["tracing.overhead_frac"] = median(tracedWalls)/median(walls) - 1
		res.notes = append(res.notes, fmt.Sprintf("tracing overhead: traced pass median %.4fs (%d passes) vs untraced %.4fs (%d passes)",
			median(tracedWalls), len(tracedWalls), median(walls), len(walls)))
		return res, nil
	}

	// Medians over passes, so a burst of contention from outside the
	// process moves a run's figures only if it spans most of the run.
	res.metrics["records_per_s"] = median(rates)
	res.metrics["peak_mem_bytes"] = float64(peak)
	if n := latencies.n; n > 0 {
		res.metrics["p50_ms"] = latencies.quantile(0.50)
		res.metrics["tail_ms"] = latencies.quantile(0.99)
		res.notes = append(res.notes, fmt.Sprintf("latency: per query over %d queries; tail_ms is p99 (%d queries beyond it)",
			n, n-int(math.Ceil(0.99*float64(n)))))
	} else {
		// A pass's latency scales with its trace, whose size varies by
		// ±10% between seeds, so it is stated per 100k records.
		ms := make([]float64, len(rates))
		for i, r := range rates {
			ms[i] = 1000 * pipelineUnit / r
		}
		res.metrics["p50_ms"] = median(ms)
		res.metrics["tail_ms"] = tenBeyond(ms)
		res.notes = append(res.notes, fmt.Sprintf("latency: per %d records of a pass, over %d passes; tail_ms has min(10, half) passes beyond it",
			pipelineUnit, len(rates)))
	}
	res.notes = append(res.notes, fmt.Sprintf("pass seconds: %.4f", walls), fmt.Sprintf("pass records: %d", records))
	return res, nil
}

// passSpans returns the spans of the i-th traced pass: the i-th root
// span and everything beneath it.
func passSpans(spans []Span, i int) []Span {
	roots := 0
	in := make(map[int]bool)
	var out []Span
	for _, s := range spans {
		switch {
		case s.Parent < 0:
			if roots == i {
				in[s.ID] = true
				out = append(out, s)
			}
			roots++
		case in[s.Parent]:
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}
