package core

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"os"
	"sync"
	"time"

	"dnscontext/internal/parallel"
	"dnscontext/internal/trace"
)

// AnalyzeSource runs the full classification pipeline over a streaming
// Source in bounded memory. With no memory budget (Options.MemoryBudget
// zero) the source is ingested whole and the in-memory pipeline runs —
// an in-memory DatasetSource short-circuits straight to AnalyzeContext
// with zero copying. With a budget, ingestion retains records only
// until the budget trips, then spills them to client-hashed partition
// files and classifies one partition at a time, producing a
// summary-grade Analysis (see Analysis.Summary) whose classification
// results, thresholds, failure statistics, and Digest are bit-identical
// to what the in-memory pipeline computes on the same trace.
//
// The streaming map phase is exposed separately as CollectShard for
// multi-process runs: each process collects a shard over its slice of
// the trace, and MergeShards + Finalize reduce them to the same result.
func AnalyzeSource(ctx context.Context, src trace.Source, opts Options) (*Analysis, error) {
	opts = opts.withDefaults()
	if d, ok := src.(*trace.DatasetSource); ok && opts.MemoryBudget <= 0 {
		return AnalyzeContext(ctx, d.DS, opts)
	}
	applyIngestWorkers(src, opts)
	run := newStreamRun(opts)
	defer run.cleanup()
	if err := run.ingest(ctx, src); err != nil {
		return nil, analysisAborted(err)
	}
	if !run.spilled {
		return analyze(ctx, &trace.Dataset{DNS: run.dns, Conns: run.conns}, opts, run.takePrep())
	}
	sh, err := run.collect(ctx)
	if err != nil {
		return nil, analysisAborted(err)
	}
	sp := opts.Trace.StartPhase("reduce")
	a := sh.Finalize()
	sp.SetItems(len(sh.clients))
	sp.End()
	a.publishMetrics(opts.Metrics)
	run.publishMetrics()
	return a, nil
}

// CollectShard is the map phase of the out-of-core pipeline: it ingests
// src exactly as AnalyzeSource does but stops at the mergeable
// AnalysisShard instead of finalizing, so several processes can each
// cover a client-disjoint slice of a trace and a final process can
// MergeShards + Finalize them. Every option that affects results must
// match across collectors (Merge verifies this); under PairRandom the
// merged result is additionally sensitive to process-local shard ranks,
// so cross-process exactness is only guaranteed under PairMostRecent.
func CollectShard(ctx context.Context, src trace.Source, opts Options) (*AnalysisShard, error) {
	opts = opts.withDefaults()
	inMemory := func(ds *trace.Dataset, prep *sidecars) (*AnalysisShard, error) {
		a, err := analyze(ctx, ds, opts, prep)
		if err != nil {
			return nil, err
		}
		return a.Shard(), nil
	}
	if d, ok := src.(*trace.DatasetSource); ok && opts.MemoryBudget <= 0 {
		return inMemory(d.DS, nil)
	}
	applyIngestWorkers(src, opts)
	run := newStreamRun(opts)
	defer run.cleanup()
	if err := run.ingest(ctx, src); err != nil {
		return nil, analysisAborted(err)
	}
	if !run.spilled {
		return inMemory(&trace.Dataset{DNS: run.dns, Conns: run.conns}, run.takePrep())
	}
	sh, err := run.collect(ctx)
	if err != nil {
		return nil, analysisAborted(err)
	}
	run.publishMetrics()
	return sh, nil
}

// ingestTunable is the optional Source capability of fanning its input
// parsing out over several goroutines (trace.ScannerSource, DirSource).
type ingestTunable interface{ SetIngestWorkers(int) }

// applyIngestWorkers applies the resolved IngestWorkers to sources that
// support parallel parsing.
func applyIngestWorkers(src trace.Source, opts Options) {
	if tun, ok := src.(ingestTunable); ok {
		tun.SetIngestWorkers(IngestWorkers(opts))
	}
}

// IngestWorkers resolves Options.IngestWorkers to a parse width:
// positive, that many; zero, the resolved Workers pool width; negative,
// one. A resident load of TSV input resolves its width the same way.
func IngestWorkers(opts Options) int {
	switch {
	case opts.IngestWorkers > 0:
		return opts.IngestWorkers
	case opts.IngestWorkers < 0:
		return 1
	default:
		return parallel.Workers(opts.Workers)
	}
}

// streamRun is the state of one out-of-core ingest + classify pass.
type streamRun struct {
	opts  Options
	parts int

	// Resident mode: records retained until the budget trips.
	dns          []trace.DNSRecord
	conns        []trace.ConnRecord
	retained     int64
	peakRetained int64

	// Spill mode.
	spilled        bool
	spillDir       string
	ownsDir        bool
	dnsW, connW    *spillWriter
	spilledRecords int64

	// Whole-trace accumulators, all associative: totals, failure stats,
	// per-resolver (count, min) for threshold derivation, and the
	// client first-appearance orders that reproduce the in-memory shard
	// ranks (conn originators first, then DNS-only clients).
	dnsTotal, connTotal int64
	failures            FailureStats
	rsyms               map[netip.Addr]int32
	resolvers           []resolverStat
	connRank            map[netip.Addr]int32
	connOrder           []netip.Addr
	dnsRank             map[netip.Addr]int32
	dnsOrder            []netip.Addr

	// prepCh, when non-nil, delivers the symbol sidecar a background
	// goroutine builds over the resident DNS records while the
	// connection stream is still scanning — the ingest/analysis overlap.
	// Buffered(1), so the builder never blocks; discarded if the budget
	// trips mid-conn-scan (the spill path derives its own state).
	prepCh chan *sidecars
}

func newStreamRun(opts Options) *streamRun {
	parts := opts.SpillParts
	if parts <= 0 {
		parts = defaultSpillParts
	}
	return &streamRun{
		opts:     opts,
		parts:    parts,
		rsyms:    make(map[netip.Addr]int32),
		connRank: make(map[netip.Addr]int32),
		dnsRank:  make(map[netip.Addr]int32),
	}
}

func (r *streamRun) cleanup() {
	if r.dnsW != nil {
		r.dnsW.close()
	}
	if r.connW != nil {
		r.connW.close()
	}
	if r.spillDir != "" {
		if r.ownsDir {
			os.RemoveAll(r.spillDir)
		} else {
			// A caller-provided spill dir is theirs; only the scratch
			// partitions this run created are removed.
			for p := 0; p < r.parts; p++ {
				os.Remove(spillPath(r.spillDir, "dns", p))
				os.Remove(spillPath(r.spillDir, "conn", p))
			}
		}
	}
}

func spillPath(dir, stream string, p int) string {
	return fmt.Sprintf("%s/%s-%03d.spill", dir, stream, p)
}

// ingest scans the source — DNS first, then connections — verifying
// time order, accumulating the whole-trace statistics, and retaining
// records until the memory budget trips, after which records go to the
// spill partitions instead.
func (r *streamRun) ingest(ctx context.Context, src trace.Source) error {
	tr := r.opts.Trace
	sp := tr.StartPhase("ingest-dns")
	var lastTS time.Duration
	first := true
	err := src.StreamDNS(func(d *trace.DNSRecord) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !first && d.TS < lastTS {
			return fmt.Errorf("source DNS stream out of order: response at %v after %v (sources must yield nondecreasing TS)", d.TS, lastTS)
		}
		first, lastTS = false, d.TS
		r.observeDNS(d)
		if r.spilled {
			r.spilledRecords++
			return r.dnsW.writeDNS(d, r.parts)
		}
		r.dns = append(r.dns, *d)
		return r.account(retainedDNSBytes(d))
	})
	sp.SetItems(int(r.dnsTotal))
	if err != nil {
		return err
	}

	// The DNS stream is complete; when it is still fully resident, build
	// the symbol sidecar now, overlapped with the connection scan, so the
	// in-memory analysis adopts it instead of re-walking the records.
	// The goroutine reads only its private slice header's elements —
	// a later budget trip nils r.dns but never mutates the records — and
	// takePrep discards the result if the run spilled.
	if !r.spilled && len(r.dns) > 0 {
		dns := r.dns
		r.prepCh = make(chan *sidecars, 1)
		psp := tr.StartConcurrent("prep-symbols")
		go func() {
			sc, err := buildSidecars(ctx, r.opts.Workers, dns)
			if err != nil {
				sc = nil // cancelled; analyze will fail on ctx anyway
			}
			psp.SetItems(len(dns))
			psp.End()
			r.prepCh <- sc
		}()
	}

	sp = tr.StartPhase("ingest-conns")
	first, lastTS = true, 0
	err = src.StreamConns(func(c *trace.ConnRecord) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !first && c.TS < lastTS {
			return fmt.Errorf("source connection stream out of order: start at %v after %v (sources must yield nondecreasing TS)", c.TS, lastTS)
		}
		first, lastTS = false, c.TS
		r.observeConn(c)
		if r.spilled {
			r.spilledRecords++
			return r.connW.writeConn(c, r.parts)
		}
		r.conns = append(r.conns, *c)
		return r.account(retainedConnBytes())
	})
	sp.SetItems(int(r.connTotal))
	sp.End()
	if err != nil {
		return err
	}
	if r.spilled {
		if err := r.dnsW.flushAll(); err != nil {
			return err
		}
		return r.connW.flushAll()
	}
	return nil
}

// takePrep collects the overlapped sidecar build, if one was started
// and is still valid (a spill invalidates it: the resident records it
// indexed were released).
func (r *streamRun) takePrep() *sidecars {
	if r.prepCh == nil {
		return nil
	}
	sc := <-r.prepCh
	r.prepCh = nil
	if r.spilled {
		return nil
	}
	return sc
}

// observeDNS folds one DNS record into the whole-trace accumulators.
func (r *streamRun) observeDNS(d *trace.DNSRecord) {
	r.dnsTotal++
	r.failures.observe(d)
	rs, ok := r.rsyms[d.Resolver]
	if !ok {
		rs = int32(len(r.resolvers))
		r.rsyms[d.Resolver] = rs
		r.resolvers = append(r.resolvers, resolverStat{addr: d.Resolver})
	}
	r.resolvers[rs].observe(d.Duration())
	if _, ok := r.dnsRank[d.Client]; !ok {
		r.dnsRank[d.Client] = int32(len(r.dnsOrder))
		r.dnsOrder = append(r.dnsOrder, d.Client)
	}
}

// observeConn folds one connection record into the accumulators.
func (r *streamRun) observeConn(c *trace.ConnRecord) {
	r.connTotal++
	if _, ok := r.connRank[c.Orig]; !ok {
		r.connRank[c.Orig] = int32(len(r.connOrder))
		r.connOrder = append(r.connOrder, c.Orig)
	}
}

// account charges n retained bytes against the budget, tripping the
// spill when it is exceeded.
func (r *streamRun) account(n int64) error {
	r.retained += n
	if r.retained > r.peakRetained {
		r.peakRetained = r.retained
	}
	if r.opts.MemoryBudget > 0 && r.retained > r.opts.MemoryBudget {
		return r.trip()
	}
	return nil
}

// trip switches the run to spill mode: create the partition files,
// flush every retained record into them (preserving arrival order, so
// per-client sequences stay time-ordered), and release the retained
// slices.
func (r *streamRun) trip() error {
	dir := r.opts.SpillDir
	if dir == "" {
		d, err := os.MkdirTemp("", "dnsctx-spill-*")
		if err != nil {
			return fmt.Errorf("creating spill dir: %w", err)
		}
		dir, r.ownsDir = d, true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating spill dir: %w", err)
	}
	r.spillDir = dir
	var err error
	if r.dnsW, err = newSpillWriter(dir, "dns", r.parts); err != nil {
		return err
	}
	if r.connW, err = newSpillWriter(dir, "conn", r.parts); err != nil {
		return err
	}
	for i := range r.dns {
		if err := r.dnsW.writeDNS(&r.dns[i], r.parts); err != nil {
			return err
		}
	}
	for i := range r.conns {
		if err := r.connW.writeConn(&r.conns[i], r.parts); err != nil {
			return err
		}
	}
	r.spilledRecords += int64(len(r.dns)) + int64(len(r.conns))
	r.dns, r.conns = nil, nil
	r.retained = 0
	r.spilled = true
	return nil
}

// clientWork is one client's complete record slice, ready to classify.
type clientWork struct {
	client netip.Addr
	rank   int32
	dns    []trace.DNSRecord
	conns  []trace.ConnRecord
}

// collect classifies the spilled trace into an AnalysisShard. The
// producer loads one partition at a time (each holds every record of
// its clients, since partitioning hashes the client), the consumers
// classify per client, and the fold is commutative, so the shard — and
// everything finalized from it — is identical for every worker count.
func (r *streamRun) collect(ctx context.Context) (*AnalysisShard, error) {
	tr := r.opts.Trace
	sp := tr.StartPhase("classify-spill")
	// Shard ranks replicate buildShards: conn-originating clients in
	// first-connection order, then DNS-only clients in first-lookup
	// order. Ranks seed the per-client RNG streams, keeping PairRandom
	// runs bit-identical to the in-memory pipeline.
	rank := make(map[netip.Addr]int32, len(r.connOrder)+len(r.dnsOrder))
	for i, c := range r.connOrder {
		rank[c] = int32(i)
	}
	next := int32(len(r.connOrder))
	for _, c := range r.dnsOrder {
		if _, ok := rank[c]; !ok {
			rank[c] = next
			next++
		}
	}

	sh := &AnalysisShard{
		opts:      r.opts,
		dnsTotal:  r.dnsTotal,
		connTotal: r.connTotal,
		failures:  r.failures,
		resolvers: append([]resolverStat(nil), r.resolvers...),
		clients:   make([]clientResult, 0, len(rank)),
	}
	var mu sync.Mutex

	workers := parallel.Workers(r.opts.Workers)
	produce := func(emit func(clientWork) error) error {
		for p := 0; p < r.parts; p++ {
			perClient, order, err := r.loadPartition(p)
			if err != nil {
				return err
			}
			for _, client := range order {
				recs := perClient[client]
				if err := emit(clientWork{client: client, rank: rank[client], dns: recs.dns, conns: recs.conns}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	consume := func(w clientWork) error {
		c := r.classifyWork(w)
		mu.Lock()
		sh.clients = append(sh.clients, c)
		mu.Unlock()
		return nil
	}
	// Buffer a handful of clients so the producer reads the next
	// partition while consumers classify the previous one's tail.
	if err := parallel.Stream(ctx, r.opts.Workers, workers*2, produce, consume); err != nil {
		return nil, err
	}
	sp.SetItems(len(sh.clients))
	sp.End()
	return sh, nil
}

// partitionRecs is one client's records within a partition.
type partitionRecs struct {
	dns   []trace.DNSRecord
	conns []trace.ConnRecord
}

// loadPartition reads partition p's two spill files, grouping records
// by client in arrival order. Returned clients preserve first-appearance
// order (DNS stream first), purely for reproducible scheduling; results
// do not depend on it.
func (r *streamRun) loadPartition(p int) (map[netip.Addr]*partitionRecs, []netip.Addr, error) {
	perClient := make(map[netip.Addr]*partitionRecs)
	var order []netip.Addr
	get := func(client netip.Addr) *partitionRecs {
		recs, ok := perClient[client]
		if !ok {
			recs = &partitionRecs{}
			perClient[client] = recs
			order = append(order, client)
		}
		return recs
	}

	dr, df, err := openSpillPartition(spillPath(r.spillDir, "dns", p))
	if err != nil {
		return nil, nil, err
	}
	for {
		d, err := dr.readDNS()
		if err != nil {
			df.Close()
			if err == io.EOF {
				break
			}
			return nil, nil, err
		}
		recs := get(d.Client)
		recs.dns = append(recs.dns, d)
	}

	cr, cf, err := openSpillPartition(spillPath(r.spillDir, "conn", p))
	if err != nil {
		return nil, nil, err
	}
	for {
		c, err := cr.readConn()
		if err != nil {
			cf.Close()
			if err == io.EOF {
				break
			}
			return nil, nil, err
		}
		recs := get(c.Orig)
		recs.conns = append(recs.conns, c)
	}
	return perClient, order, nil
}

// classifyWork runs the pairing kernel over one client's own record
// slices (identity indices), with the per-record expiry and resolver
// symbols derived here rather than from a dataset-wide sidecar.
func (r *streamRun) classifyWork(w clientWork) clientResult {
	c := clientResult{client: w.client, nDNS: int32(len(w.dns))}
	if len(w.conns) == 0 {
		return c
	}
	expiry := make([]time.Duration, len(w.dns))
	rsym := make([]int32, len(w.dns))
	for i := range w.dns {
		expiry[i] = w.dns[i].ExpiresAt()
		rsym[i] = r.rsyms[w.dns[i].Resolver]
	}
	c.entries = classifyClient(&r.opts, int(w.rank), w.dns, expiry, rsym, w.conns,
		identity(len(w.dns)), identity(len(w.conns)))
	return c
}

// identity returns the index list 0, 1, ..., n-1.
func identity(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// publishMetrics records the streaming run's counters.
func (r *streamRun) publishMetrics() {
	reg := r.opts.Metrics
	if reg == nil || !r.spilled {
		return
	}
	reg.Counter("dnsctx_stream_spilled_records_total",
		"Trace records diverted to spill partitions by the memory budget.").
		Add(uint64(r.spilledRecords))
	reg.Counter("dnsctx_stream_spill_partitions_total",
		"Spill partitions (per stream) the out-of-core classify phase consumed.").
		Add(uint64(r.parts))
}
