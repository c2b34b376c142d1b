package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"dnscontext/internal/bulk"
	"dnscontext/internal/chaos"
	"dnscontext/internal/dnsserver"
	"dnscontext/internal/obs"
	"dnscontext/internal/stats"
	"dnscontext/internal/zonedb"
)

// scan-lossy's shape: a closed loop of scanWindow queries in flight,
// scanQueries names per pass, 5% of them absent from the zone.
const (
	scanQueries  = 200_000
	scanWindow   = 256
	scanMissFrac = 0.05
	scanLoss     = 0.02
	scanJitter   = 500 * time.Microsecond
	// scanRetries sizes the ladder so an all-attempts-lost timeout is
	// far below one per run. A datagram pair survives the proxy with
	// probability (1-0.02)², so an attempt is lost with q ≈ 0.0396, and
	// all 1+5 attempts with q⁶ ≈ 3.9e-9: about 0.004 timeouts expected
	// in a run's ~1M queries, before hedging lowers it further.
	scanRetries = 5
)

// scan is the dnsscan live path: a synthetic feed through a ClientPool
// (adaptive timeouts and hedging) and a chaos proxy (2% loss, jitter)
// to an in-process dnsserver, with JSONL output.
type scan struct {
	seed  uint64
	dir   string
	zones *zonedb.DB
	plain *scanStack
	// observed is the traced passes' own stack, whose pool and server
	// count into a registry; timed passes never use one.
	observed *scanStack

	// Check state, allocated once so the benchmark's own memory does
	// not grow with the passes it measures.
	names   []string
	checker *scanChecker
	latency *latencyHist
}

func newScan(seed uint64, dir string) *scan {
	return &scan{
		seed: seed, dir: dir,
		names:   make([]string, 0, scanQueries),
		checker: newScanChecker(scanQueries),
		latency: newLatencyHist(),
	}
}

// scanStack is one server, the proxy in front of it, and a pool of
// client sockets aimed at the proxy.
type scanStack struct {
	srv  *dnsserver.Server
	px   *chaos.Proxy
	pool *dnsserver.ClientPool
	reg  *obs.Registry
}

func newScanStack(zones *zonedb.DB, seed uint64, reg *obs.Registry) (*scanStack, error) {
	n := runtime.NumCPU()
	st := &scanStack{reg: reg}
	st.srv = dnsserver.NewServerWith(dnsserver.ZoneHandler(zones),
		dnsserver.Config{Workers: n, QueueDepth: 4096}, reg)
	addr, err := st.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.px, err = chaos.NewUDP(chaos.Config{
		Upstream: addr.String(),
		Profile:  chaos.Profile{Loss: scanLoss, Jitter: scanJitter},
		Seed:     seed,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.pool, err = dnsserver.NewClientPool(st.px.Addr(), dnsserver.ClientPoolConfig{
		Sockets:    n,
		Timeout:    250 * time.Millisecond,
		Retries:    scanRetries,
		MaxTimeout: time.Second,
		Adaptive:   true,
		Hedge:      true,
		Metrics:    reg,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *scanStack) close() {
	if st == nil {
		return
	}
	if st.pool != nil {
		st.pool.Close()
	}
	if st.px != nil {
		st.px.Close()
	}
	st.srv.Close()
}

// setup builds the zone DB, server, proxy and pool.
func (s *scan) setup() error {
	s.plain.close()
	s.plain = nil
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	zones, err := zonedb.New(zonedb.DefaultConfig(), stats.NewRNG(s.seed))
	if err != nil {
		return err
	}
	s.zones = zones
	s.plain, err = newScanStack(zones, s.seed, nil)
	return err
}

func (s *scan) prepare() error { return nil }

func (s *scan) close() {
	s.plain.close()
	s.observed.close()
}

// feed is pass i's query stream; the same seed and pass give the same
// names.
func (s *scan) feed(i int) *bulk.SyntheticSource {
	return bulk.NewSyntheticSource(s.zones, bulk.SyntheticConfig{
		N: scanQueries, Seed: s.seed<<20 + uint64(i), MissFraction: scanMissFrac,
	})
}

func (s *scan) pass(c *passCtx) passOut {
	o := passOut{attempted: scanQueries}
	fail := func(err error) passOut {
		fmt.Fprintf(os.Stderr, "perfbench: scan-lossy pass %d: %v\n", c.index, err)
		o.failed = scanQueries
		return o
	}
	st := s.plain
	if c.rec != nil {
		if s.observed == nil {
			var err error
			if s.observed, err = newScanStack(s.zones, s.seed+1, obs.NewRegistry()); err != nil {
				return fail(err)
			}
		}
		st = s.observed
	}
	path := filepath.Join(s.dir, "scan.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return fail(err)
	}
	snap0, px0 := st.reg.Snapshot(), st.px.Stats()

	call := c.rec.Begin("bulk.RunLive", c.root)
	t0 := time.Now()
	sum, err := bulk.RunLive(context.Background(), s.feed(c.index), st.pool,
		bulk.Options{Concurrency: scanWindow, Output: f})
	o.wall = time.Since(t0)
	c.layers.call(call, "bulk.run_s", "bulk.run_alloc_bytes", "bulk.run_gc_cpu_s")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	o.records = int(sum.Queries)

	if c.layers != nil {
		snap1, px1 := st.reg.Snapshot(), st.px.Stats()
		delta := func(family string) float64 {
			return counterValue(snap1, family) - counterValue(snap0, family)
		}
		q := float64(sum.Queries)
		c.layers.add("bulk.coalesced_frac", float64(sum.Coalesced)/q)
		c.layers.add("dnsserver.pool_attempts_per_query", delta("dnsctx_pool_attempts_total")/q)
		if h := delta("dnsctx_pool_hedges_total"); h > 0 {
			c.layers.add("dnsserver.hedge_win_frac", delta("dnsctx_pool_hedge_wins_total")/h)
		}
		c.layers.add("dnsserver.pool_timeouts", delta("dnsctx_pool_timeouts_total"))
		if r := delta("dnsctx_dnsserver_received_total"); r > 0 {
			c.layers.add("dnsserver.server_shed_frac", delta("dnsctx_dnsserver_shed_total")/r)
		}
		dropped := float64(px1.Dropped - px0.Dropped)
		if all := dropped + float64(px1.Forwarded-px0.Forwarded) + float64(px1.Blackholed-px0.Blackholed); all > 0 {
			c.layers.add("chaos.drop_frac", dropped/all)
		}
	}

	out, err := os.Open(path)
	if err != nil {
		return fail(err)
	}
	defer out.Close()
	s.names = s.names[:0]
	for src := s.feed(c.index); src.Scan(); {
		s.names = append(s.names, src.Query().Name)
	}
	s.latency.reset()
	failed, err := s.checker.check(out, s.names, func(name string) bool { return s.zones.Lookup(name) != nil }, s.latency.add)
	if err != nil {
		return fail(err)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: scan-lossy pass %d: %d of %d queries failed the check (%v)\n",
			c.index, failed, scanQueries, sum.ByStatus)
	}
	o.failed, o.latency = failed, s.latency
	return o
}

// scanChecker checks scan outputs, reusing its per-index state.
type scanChecker struct {
	seen []uint8
	bad  []bool
}

func newScanChecker(n int) *scanChecker {
	return &scanChecker{seen: make([]uint8, n), bad: make([]bool, n)}
}

// check checks a scan's JSONL output against its feed: every feed
// index exactly once, under its feed name, with the status the zone
// implies (NOERROR for a name that exists, NXDOMAIN for one that does
// not — so TIMEOUT, ERROR and BUSY all fail). It returns the number of
// failed queries — indices missing, duplicated, misnamed or with the
// wrong status, plus lines naming no feed index — and the latency in
// ms of each index's first line goes to latency.
func (k *scanChecker) check(r io.Reader, feed []string, exists func(name string) bool, latency func(ms float64)) (failed int, err error) {
	if len(feed) > len(k.seen) {
		k.seen, k.bad = make([]uint8, len(feed)), make([]bool, len(feed))
	}
	seen, bad := k.seen[:len(feed)], k.bad[:len(feed)]
	clear(seen)
	clear(bad)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		iStr, ok1 := jsonField(line, "i")
		name, ok2 := jsonField(line, "name")
		status, ok3 := jsonField(line, "status")
		msStr, ok4 := jsonField(line, "ms")
		i, err1 := strconv.ParseUint(string(iStr), 10, 64)
		ms, err2 := strconv.ParseFloat(string(msStr), 64)
		if !ok1 || !ok2 || !ok3 || !ok4 || err1 != nil || err2 != nil || i >= uint64(len(feed)) {
			failed++
			continue
		}
		if seen[i] < 255 {
			seen[i]++
		}
		if seen[i] > 1 {
			bad[i] = true
			continue
		}
		latency(ms)
		want := "NXDOMAIN"
		if exists(feed[i]) {
			want = "NOERROR"
		}
		if string(name) != feed[i] || string(status) != want {
			bad[i] = true
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	for i := range feed {
		if seen[i] == 0 || bad[i] {
			failed++
		}
	}
	return failed, nil
}

// jsonField returns the raw value of "key": in one flat JSONL line,
// unquoted for strings. The scan encoder writes no field that needs
// escaping before the error text, which this never reads.
func jsonField(line []byte, key string) ([]byte, bool) {
	k := []byte(`"` + key + `":`)
	at := bytes.Index(line, k)
	if at < 0 {
		return nil, false
	}
	v := line[at+len(k):]
	if len(v) > 0 && v[0] == '"' {
		end := bytes.IndexByte(v[1:], '"')
		if end < 0 {
			return nil, false
		}
		return v[1 : 1+end], true
	}
	end := bytes.IndexAny(v, ",}")
	if end < 0 {
		return nil, false
	}
	return v[:end], true
}
