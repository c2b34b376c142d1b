package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"dnscontext/internal/obs"
	"dnscontext/internal/parallel"
	"dnscontext/internal/trace"
)

// AnalyzeContext runs the full pipeline over ds: DN-Hunter pairing, the
// blocking heuristic, per-resolver SC/R thresholds, and Table 2
// classification. The dataset is time-sorted in place. Cancellation is
// cooperative: the worker pool checks ctx between shards. A cancelled
// run returns a nil Analysis and an error wrapping the context's error —
// never a partial result.
//
// The pipeline partitions connections by originating client (the paper's
// pairing, §4, keys on the originator, so shards share no state), runs
// pairing + blocking + classification for the shards on a bounded worker
// pool, and merges per-shard tallies in shard order. Each shard draws
// from its own RNG stream seeded from Opts.Seed and the shard ID, so the
// result is bit-identical for every Workers value and GOMAXPROCS.
func AnalyzeContext(ctx context.Context, ds *trace.Dataset, opts Options) (*Analysis, error) {
	return analyze(ctx, ds, opts, nil)
}

// analyze is the pipeline behind AnalyzeContext. prep, when non-nil, is
// a symbol sidecar a streaming ingest built concurrently with its
// connection scan; it is only valid when built over ds.DNS in an order
// SortByTime preserves (the ingest verifies nondecreasing TS, so the
// stable sort's early-out leaves the records untouched) — the length
// check guards against anything else.
func analyze(ctx context.Context, ds *trace.Dataset, opts Options, prep *sidecars) (*Analysis, error) {
	opts = opts.withDefaults()
	tr := opts.Trace
	tr.SetWorkers(parallel.Workers(opts.Workers))

	sp := tr.StartPhase("sort")
	ds.SortByTime()
	sp.SetItems(len(ds.Conns) + len(ds.DNS))
	a := &Analysis{
		Opts:      opts,
		DS:        ds,
		Paired:    make([]PairedConn, len(ds.Conns)),
		DNSUsed:   make([]bool, len(ds.DNS)),
		connTotal: len(ds.Conns),
		dnsTotal:  len(ds.DNS),
	}

	// Phase overlap: shard building reads only the sorted dataset, while
	// the symbol build feeds the threshold derivation — so sharding runs
	// concurrently with intern+thresholds and joins before classify. The
	// overlapped stages write disjoint Analysis fields, and neither reads
	// the other's output, so the result is the same as running them in
	// sequence.
	shardSp := tr.StartConcurrent("shard")
	shardDone := make(chan error, 1)
	go func() {
		var err error
		pprof.Do(context.Background(), pprof.Labels("dnsctx_phase", "shard"), func(context.Context) {
			err = a.buildShards(ctx)
		})
		shardSp.SetItems(len(a.shards))
		shardSp.End()
		shardDone <- err
	}()

	sp = tr.StartPhase("intern")
	if prep != nil && len(prep.qsym) == len(ds.DNS) {
		a.adoptSidecars(prep)
	} else if err := a.buildSymbols(ctx); err != nil {
		<-shardDone
		return nil, analysisAborted(err)
	}
	sp.SetItems(len(ds.DNS))
	sp = tr.StartPhase("thresholds")
	a.Thresholds, a.thByRsym = deriveThresholds(a.resolvers, int64(a.dnsTotal), &a.Opts)
	sp.SetItems(len(a.Thresholds))
	if err := <-shardDone; err != nil {
		return nil, analysisAborted(err)
	}

	sp = tr.StartPhase("classify")
	sp.SetItems(len(a.Paired))
	a.clients = make([]clientResult, len(a.shards))
	counts := make([][numClasses]int, len(a.shards))
	var ck *ckRun
	if opts.Checkpoint != nil && opts.Checkpoint.Path != "" {
		ck = newCkRun(a, opts.Checkpoint)
		if opts.Checkpoint.Resume {
			if err := ck.restore(); err != nil {
				return nil, analysisAborted(err)
			}
		}
	}
	var err error
	pprof.Do(context.Background(), pprof.Labels("dnsctx_phase", "classify"), func(context.Context) {
		err = parallel.ForEach(ctx, opts.Workers, len(a.shards), func(s int) error {
			if ck != nil && ck.isRestored(s) {
				counts[s] = a.fillPaired(s)
				return nil
			}
			var t0 time.Time
			if tr != nil {
				t0 = time.Now()
			}
			sh := &a.shards[s]
			a.clients[s] = clientResult{client: sh.client, nDNS: int32(len(sh.dns)),
				entries: classifyClient(&a.Opts, s, a.DS.DNS, a.expiry, a.rsym, a.DS.Conns, sh.dns, sh.conns)}
			counts[s] = a.fillPaired(s)
			if tr != nil {
				tr.ShardDone(len(sh.conns), time.Since(t0))
			}
			if ck != nil {
				return ck.complete(s)
			}
			return nil
		})
	})
	if err != nil {
		return nil, analysisAborted(err)
	}
	sp = tr.StartPhase("merge")
	for s := range counts {
		for c, n := range counts[s] {
			a.classCounts[c] += n
		}
	}
	sp.SetItems(len(counts))
	sp.End()
	a.publishMetrics(opts.Metrics)
	return a, nil
}

// publishMetrics records the finished run's tallies with reg. It runs
// after the pipeline completes, so the registry observes results without
// any opportunity to influence them.
func (a *Analysis) publishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	byClass := reg.CounterVec("dnsctx_analyzer_connections_total",
		"Connections classified, by DNS-information-origin class (Table 2).", "class")
	for c := ClassN; c < numClasses; c++ {
		byClass.With(c.String()).Add(uint64(a.classCounts[c]))
	}
	reg.Counter("dnsctx_analyzer_shards_total",
		"Per-client shards the pipeline partitioned the dataset into.").
		Add(uint64(len(a.shards)))
	reg.Counter("dnsctx_analyzer_dns_records_total",
		"DNS records in the analyzed dataset.").Add(uint64(a.dnsTotal))
}

func analysisAborted(err error) error {
	return fmt.Errorf("dnscontext: analysis aborted: %w", err)
}

// fillPaired expands shard s's pairing facts into the dataset-indexed
// Paired and DNSUsed slots it owns, classifying each connection with
// entryClass, and returns the shard's per-class tally. Computed and
// checkpoint-restored shards both pass through here. The tally is
// returned rather than accumulated in place: adjacent shards' slots of
// a shared counts slice share cache lines, and per-connection writes
// from concurrent workers would false-share them.
func (a *Analysis) fillPaired(s int) (counts [numClasses]int) {
	sh := &a.shards[s]
	entries := a.clients[s].entries
	for j := range entries {
		e := &entries[j]
		ci := sh.conns[j]
		class := entryClass(e, &a.Opts, a.thByRsym)
		counts[class]++
		pc := &a.Paired[ci]
		pc.Conn, pc.DNS, pc.Class = int(ci), -1, class
		if e.localDNS < 0 {
			continue
		}
		pc.DNS = int(sh.dns[e.localDNS])
		pc.Gap = e.gap
		pc.Candidates = int(e.candidates)
		pc.FirstUse = e.firstUse
		pc.UsedExpired = e.usedExpired
		a.DNSUsed[pc.DNS] = true
	}
	return counts
}

// Table2Row is one line of Table 2.
type Table2Row struct {
	Class    Class
	Conns    int
	Fraction float64
}

// Table2 computes the DNS-information-origin breakdown.
func (a *Analysis) Table2() []Table2Row {
	total := a.connTotal
	rows := make([]Table2Row, 0, numClasses)
	for c := ClassN; c < numClasses; c++ {
		frac := 0.0
		if total > 0 {
			frac = float64(a.classCounts[c]) / float64(total)
		}
		rows = append(rows, Table2Row{Class: c, Conns: a.classCounts[c], Fraction: frac})
	}
	return rows
}

// BlockedFraction is the share of connections awaiting DNS (SC + R).
func (a *Analysis) BlockedFraction() float64 {
	return a.Fraction(ClassSC) + a.Fraction(ClassR)
}

// SharedCacheHitRate is SC / (SC + R): how often a blocked connection's
// record was in the shared resolver cache (paper: 62.6%).
func (a *Analysis) SharedCacheHitRate() float64 {
	sc, r := a.Count(ClassSC), a.Count(ClassR)
	if sc+r == 0 {
		return 0
	}
	return float64(sc) / float64(sc+r)
}
