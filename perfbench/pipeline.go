package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dnscontext"
	"dnscontext/internal/obs"
)

// Trace scale shared by the three pipeline workloads: 50 houses
// observed for 24 h, about 313k DNS + connection records (25 MB of TSV)
// per seed.
const (
	traceHouses   = 50
	traceDuration = 24 * time.Hour
)

// analyzeRecords is the analyze workloads' stated input size. A
// 50-house day holds 296k-410k records depending on the seed, so their
// trace is that day cut at the timestamp where it reaches this many
// records: same size for every seed, so pass time and peak memory
// compare across seeds.
const analyzeRecords = 250_000

// spillBudget is analyze-spill's resident-record budget: well under the
// ~30 MB the analyze trace retains, so ingest spills to partitions on
// disk and classifies them back one at a time.
const spillBudget = 8 << 20

func generatorConfig(seed uint64) dnscontext.GeneratorConfig {
	cfg := dnscontext.DefaultGeneratorConfig()
	cfg.Houses = traceHouses
	cfg.Duration = traceDuration
	cfg.Seed = seed
	return cfg
}

// generateRotation is how many 50-house days a generate run cycles
// through: pass i of seed s simulates generator seed s·4 + i mod 4. The
// work in a day varies by ±10% between generator seeds, so a run that
// measures one day would carry that spread into every figure; the
// median of a rotation averages it down.
const generateRotation = 4

func generateSeed(seed uint64, pass int) uint64 {
	return seed*generateRotation + uint64(pass%generateRotation)
}

// pipeline runs the generate and analyze workloads.
type pipeline struct {
	name    string
	seed    uint64
	dir     string
	workers int

	// tsvHash maps a generator seed to the hash its trace's TSV bytes
	// must have: pinned, or else the first this run produced.
	tsvHash    map[uint64]string
	inputErr   error  // the analyze trace failed its check: every pass fails
	digest     uint64 // the trace's Analysis.Digest, once known
	digestFrom string
	report     bytes.Buffer
	profiles   []dnscontext.PlatformProfile
}

func newPipeline(name string, seed uint64, dir string) *pipeline {
	p := &pipeline{
		name: name, seed: seed, dir: dir,
		workers:  runtime.NumCPU(),
		tsvHash:  make(map[uint64]string),
		profiles: dnscontext.DefaultProfiles(),
	}
	pt := pins()
	if name == "generate" {
		for i := 0; i < generateRotation; i++ {
			g := generateSeed(seed, i)
			if h, ok := pt.generate[g]; ok {
				p.tsvHash[g] = h
			}
		}
	} else if pin, ok := pt.analyze[seed]; ok {
		p.tsvHash[seed] = pin.tsv
		p.digest, p.digestFrom = pin.digest, "pinned"
	}
	if len(p.tsvHash) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: seed %d is not pinned; outputs are checked against this run's own first results\n", seed)
	}
	return p
}

func (p *pipeline) dnsPath() string  { return filepath.Join(p.dir, "dns.tsv") }
func (p *pipeline) connPath() string { return filepath.Join(p.dir, "conn.tsv") }

// setup: generate fills lazily-built runtime state with a warm-up: two
// houses of the same window, written out. The warm-up uses one fixed
// generator seed, because the work in a few houses varies several-fold
// between seeds. The analyze workloads generate the seed's trace, cut
// it to analyzeRecords, and write it as the two TSV logs they read.
func (p *pipeline) setup() error {
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	if p.name == "generate" {
		cfg := generatorConfig(0)
		cfg.Houses = 2
		ds, _, err := dnscontext.Generate(cfg)
		if err != nil {
			return err
		}
		_, err = writeTrace(ds, p.dnsPath(), p.connPath(), nil, -1, nil)
		return err
	}
	ds, err := analyzeTrace(p.seed)
	if err != nil {
		return err
	}
	if _, err := writeTrace(ds, p.dnsPath(), p.connPath(), nil, -1, nil); err != nil {
		return err
	}
	p.inputErr = p.checkTSV(p.seed)
	return nil
}

// analyzeTrace is the analyze workloads' input for seed: the first
// analyzeRecords records, in time order, of the seed's 50-house day.
func analyzeTrace(seed uint64) (*dnscontext.Dataset, error) {
	ds, _, err := dnscontext.Generate(generatorConfig(seed))
	if err != nil {
		return nil, err
	}
	cutTrace(ds, analyzeRecords)
	return ds, nil
}

// cutTrace keeps the first n records of ds in time order. Both streams
// are time-sorted; it walks them as one.
func cutTrace(ds *dnscontext.Dataset, n int) {
	i, j := 0, 0
	for i+j < n && (i < len(ds.DNS) || j < len(ds.Conns)) {
		if j == len(ds.Conns) || (i < len(ds.DNS) && ds.DNS[i].TS <= ds.Conns[j].TS) {
			i++
		} else {
			j++
		}
	}
	ds.DNS, ds.Conns = ds.DNS[:i], ds.Conns[:j]
}

// checkTSV hashes the trace files, written from generator seed g, and
// requires g's pinned hash, or else the hash every earlier set-up or
// pass of this run produced for g.
func (p *pipeline) checkTSV(g uint64) error {
	h, err := hashFiles(p.dnsPath(), p.connPath())
	if err != nil {
		return err
	}
	want, ok := p.tsvHash[g]
	if !ok {
		p.tsvHash[g] = h
		return nil
	}
	if h != want {
		return fmt.Errorf("generator seed %d: TSV hash %s, want %s", g, h, want)
	}
	return nil
}

// checkDigest requires the seed's pinned digest, or else the digest of
// the first analysis this run made. analyze-resident and analyze-spill
// of one seed share the pin, which is the stream-parity invariant.
func (p *pipeline) checkDigest(a *dnscontext.Analysis) error {
	d := a.Digest()
	if p.digestFrom == "" {
		p.digest, p.digestFrom = d, "first pass"
	}
	if d != p.digest {
		return fmt.Errorf("seed %d: analysis digest %016x, want %016x (%s)", p.seed, d, p.digest, p.digestFrom)
	}
	return nil
}

// prepare analyzes the trace in memory when the seed has no pin, so
// both analyze workloads check against the resident pipeline's digest.
func (p *pipeline) prepare() error {
	if p.digestFrom != "" || p.name == "generate" {
		return nil
	}
	ds := &dnscontext.Dataset{}
	var err error
	if ds.DNS, err = readFile(p.dnsPath(), dnscontext.ReadDNS); err != nil {
		return err
	}
	if ds.Conns, err = readFile(p.connPath(), dnscontext.ReadConns); err != nil {
		return err
	}
	a, err := dnscontext.NewAnalyzer(dnscontext.WithWorkers(p.workers)).AnalyzeContext(context.Background(), ds)
	if err != nil {
		return err
	}
	p.digest, p.digestFrom = a.Digest(), "in-memory analysis of this trace"
	return nil
}

func (p *pipeline) pass(c *passCtx) passOut {
	var (
		o   passOut
		err error
	)
	switch p.name {
	case "generate":
		o, err = p.generatePass(c)
	case "analyze-resident":
		o, err = p.residentPass(c)
	default:
		o, err = p.spillPass(c)
	}
	o.attempted = 1
	if err == nil {
		err = p.inputErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: %v\n", p.name, c.index, err)
		o.failed = 1
	}
	return o
}

// generatePass is the tracegen job: Generate, then both TSV logs, for
// the pass's day of the rotation.
func (p *pipeline) generatePass(c *passCtx) (passOut, error) {
	var o passOut
	t0 := time.Now()
	call := c.rec.Begin("households.Generate", c.root)
	g := generateSeed(p.seed, c.index)
	ds, _, err := dnscontext.Generate(generatorConfig(g))
	c.layers.call(call, "households.generate_s", "households.alloc_bytes", "households.gc_cpu_s")
	if err != nil {
		return o, err
	}
	o.records = len(ds.DNS) + len(ds.Conns)
	c.layers.add("households.records", float64(o.records))
	n, err := writeTrace(ds, p.dnsPath(), p.connPath(), c.rec, c.root, c.layers)
	o.wall = time.Since(t0)
	c.layers.add("trace.write_bytes", float64(n))
	if err != nil {
		return o, err
	}
	return o, p.checkTSV(g)
}

// residentPass is the default dnsctx job: serial TSV read, in-memory
// Analyze, full Report.
func (p *pipeline) residentPass(c *passCtx) (passOut, error) {
	var o passOut
	t0 := time.Now()
	ds := &dnscontext.Dataset{}
	var err error
	call := c.rec.Begin("trace.ReadDNS", c.root)
	ds.DNS, err = readFile(p.dnsPath(), dnscontext.ReadDNS)
	c.layers.call(call, "trace.read_s", "trace.read_alloc_bytes", "trace.read_gc_cpu_s")
	if err != nil {
		return o, err
	}
	call = c.rec.Begin("trace.ReadConns", c.root)
	ds.Conns, err = readFile(p.connPath(), dnscontext.ReadConns)
	c.layers.call(call, "trace.read_s", "trace.read_alloc_bytes", "trace.read_gc_cpu_s")
	if err != nil {
		return o, err
	}
	o.records = len(ds.DNS) + len(ds.Conns)

	opts := []dnscontext.AnalyzerOption{dnscontext.WithWorkers(p.workers)}
	var tr *dnscontext.Tracer
	if c.rec != nil {
		tr = dnscontext.NewTracer()
		opts = append(opts, dnscontext.WithTracer(tr))
	}
	call = c.rec.Begin("core.Analyze", c.root)
	a, err := dnscontext.NewAnalyzer(opts...).AnalyzeContext(context.Background(), ds)
	c.layers.call(call, "core.analyze_s", "core.analyze_alloc_bytes", "")
	if err != nil {
		return o, err
	}
	nestTimeline(c, call, tr)
	if err := p.writeReport(c, a); err != nil {
		return o, err
	}
	o.wall = time.Since(t0)
	return o, p.checkDigest(a)
}

// spillPass streams the same trace through AnalyzeSource with parallel
// ingest and a memory budget that forces spilling.
func (p *pipeline) spillPass(c *passCtx) (passOut, error) {
	var o passOut
	t0 := time.Now()
	df, err := os.Open(p.dnsPath())
	if err != nil {
		return o, err
	}
	defer df.Close()
	cf, err := os.Open(p.connPath())
	if err != nil {
		return o, err
	}
	defer cf.Close()
	call := c.rec.Begin("trace.NewScannerSource", c.root)
	src := dnscontext.NewScannerSource(df, cf, dnscontext.StrictPolicy())
	c.layers.call(call, "trace.read_s", "trace.read_alloc_bytes", "trace.read_gc_cpu_s")

	opts := []dnscontext.AnalyzerOption{
		dnscontext.WithWorkers(p.workers),
		dnscontext.WithIngestWorkers(p.workers),
		dnscontext.WithMemoryBudget(spillBudget),
		dnscontext.WithSpillDir(filepath.Join(p.dir, "spill")),
	}
	var (
		tr  *dnscontext.Tracer
		reg *dnscontext.MetricsRegistry
	)
	if c.rec != nil {
		tr, reg = dnscontext.NewTracer(), dnscontext.NewMetricsRegistry()
		opts = append(opts, dnscontext.WithTracer(tr), dnscontext.WithMetrics(reg))
	}
	call = c.rec.Begin("core.AnalyzeSource", c.root)
	a, err := dnscontext.NewAnalyzer(opts...).AnalyzeSource(context.Background(), src)
	c.layers.call(call, "core.analyze_source_s", "core.analyze_source_alloc_bytes", "")
	if err != nil {
		return o, err
	}
	nestTimeline(c, call, tr)
	c.layers.add("core.spill_partitions", counterValue(reg.Snapshot(), "dnsctx_stream_spill_partitions_total"))
	if err := p.writeReport(c, a); err != nil {
		return o, err
	}
	o.wall = time.Since(t0)
	o.records = a.TotalDNS() + a.TotalConns()
	if !a.Summary() {
		return o, fmt.Errorf("seed %d: the %d-byte budget did not spill", p.seed, spillBudget)
	}
	return o, p.checkDigest(a)
}

// writeReport renders the full report into a reused buffer.
func (p *pipeline) writeReport(c *passCtx, a *dnscontext.Analysis) error {
	p.report.Reset()
	call := c.rec.Begin("core.Report", c.root)
	err := a.Report(&p.report, p.profiles)
	c.layers.call(call, "core.report_s", "core.report_alloc_bytes", "")
	if err == nil && p.report.Len() == 0 {
		err = fmt.Errorf("empty report")
	}
	return err
}

// nestTimeline files the analyzer's phase timeline under the call that
// ran it and reads the phase times and shard skew from it.
func nestTimeline(c *passCtx, call Call, tr *dnscontext.Tracer) {
	if tr == nil {
		return
	}
	tl := tr.Timeline()
	call.Nest(tl)
	for _, ph := range tl.Phases {
		c.layers.add("core.phase."+ph.Name+"_s", ph.Seconds)
	}
	if s := tl.Shards; s != nil && s.Items > 0 {
		// The timeline keeps per-shard items, not per-shard busy time,
		// so skew is the largest shard's items over the mean.
		c.layers.add("core.shard_skew", float64(s.MaxItems)*float64(s.Count)/float64(s.Items))
	}
}

// writeTrace writes both TSV logs and returns the bytes written. With a
// recorder it spans each write.
func writeTrace(ds *dnscontext.Dataset, dnsPath, connPath string, rec *Recorder, parent int, lm layerMetrics) (int64, error) {
	n1, err := writeFile(dnsPath, rec, parent, lm, "trace.WriteDNS", func(w io.Writer) error {
		return dnscontext.WriteDNS(w, ds.DNS)
	})
	if err != nil {
		return n1, err
	}
	n2, err := writeFile(connPath, rec, parent, lm, "trace.WriteConns", func(w io.Writer) error {
		return dnscontext.WriteConns(w, ds.Conns)
	})
	return n1 + n2, err
}

func writeFile(path string, rec *Recorder, parent int, lm layerMetrics, span string, fill func(io.Writer) error) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: f}
	call := rec.Begin(span, parent)
	err = fill(cw)
	lm.call(call, "trace.write_s", "trace.write_alloc_bytes", "")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}

func readFile[T any](path string, read func(io.Reader) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}

// hashFiles is the SHA-256 of the files' bytes in order, as hex.
func hashFiles(paths ...string) (string, error) {
	h := sha256.New()
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// counterValue is a counter family's total in a registry snapshot.
func counterValue(snap obs.Snapshot, family string) float64 {
	var v float64
	for _, f := range snap.Families {
		if f.Name == family {
			for _, m := range f.Metrics {
				v += m.Value
			}
		}
	}
	return v
}

func (p *pipeline) close() {}
