package core

import (
	"bytes"
	"context"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"dnscontext/internal/households"
	"dnscontext/internal/trace"
)

// TestParallelIngestGoldenParity is the tentpole determinism gate for
// the chunked-ingest + prep-overlap path: AnalyzeSource over a TSV
// ScannerSource must produce bit-identical golden hashes and Digest at
// every (Workers, IngestWorkers) combination, under both pairing
// policies, at one parse worker (IngestWorkers -1) and several. The
// reference is one
// serial in-memory analysis of the same parsed records (the TSV format
// rounds timestamps to microseconds, so the reference must come from
// the roundtripped dataset, not the generator's).
func TestParallelIngestGoldenParity(t *testing.T) {
	cfg := households.SmallConfig(7)
	cfg.Houses = 8
	cfg.Duration = time.Hour
	cfg.Warmup = 30 * time.Minute
	ds, eco, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds.SortByTime()
	var dnsBuf, connBuf bytes.Buffer
	if err := trace.WriteDNS(&dnsBuf, ds.DNS); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteConns(&connBuf, ds.Conns); err != nil {
		t.Fatal(err)
	}
	dnsTSV, connTSV := dnsBuf.String(), connBuf.String()

	parsedDNS, err := trace.ReadDNS(strings.NewReader(dnsTSV))
	if err != nil {
		t.Fatal(err)
	}
	parsedConns, err := trace.ReadConns(strings.NewReader(connTSV))
	if err != nil {
		t.Fatal(err)
	}

	for _, pairing := range []PairingPolicy{PairMostRecent, PairRandom} {
		opts := DefaultOptions()
		opts.Pairing = pairing
		opts.SCRMinSamples = 50
		ref := analyzeCopy(t, &trace.Dataset{DNS: parsedDNS, Conns: parsedConns}, opts)
		wantReport, wantPaired, wantShard := hashAnalysis(t, ref, eco.Profiles)

		for _, workers := range []int{1, 2, 8} {
			for _, ingest := range []int{-1, 2, 8} {
				o := opts
				o.Workers = workers
				o.IngestWorkers = ingest
				src := trace.NewScannerSource(
					strings.NewReader(dnsTSV), strings.NewReader(connTSV), trace.Strict())
				a, err := AnalyzeSource(context.Background(), src, o)
				if err != nil {
					t.Fatalf("pairing=%v workers=%d ingest=%d: %v", pairing, workers, ingest, err)
				}
				if a.Summary() {
					t.Fatalf("pairing=%v workers=%d ingest=%d: unbudgeted scanner source returned a summary analysis",
						pairing, workers, ingest)
				}
				report, paired, shard := hashAnalysis(t, a, eco.Profiles)
				if report != wantReport || paired != wantPaired || shard != wantShard {
					t.Errorf("pairing=%v workers=%d ingest=%d: hashes (%#016x %#016x %#016x), want (%#016x %#016x %#016x)",
						pairing, workers, ingest, report, paired, shard, wantReport, wantPaired, wantShard)
				}
				if a.Digest() != ref.Digest() {
					t.Errorf("pairing=%v workers=%d ingest=%d: digest %#016x, want %#016x",
						pairing, workers, ingest, a.Digest(), ref.Digest())
				}
			}
		}
	}
}

// serialSidecars is the straightforward single-pass sidecar build the
// chunked build must reproduce.
func serialSidecars(dns []trace.DNSRecord) *sidecars {
	sc := &sidecars{
		names:  trace.NewSymbolTable(),
		qsym:   make([]trace.Sym, len(dns)),
		rsym:   make([]int32, len(dns)),
		expiry: make([]time.Duration, len(dns)),
	}
	rsyms := make(map[netip.Addr]int32)
	for i := range dns {
		d := &dns[i]
		sc.qsym[i] = sc.names.Intern(d.Query)
		sc.expiry[i] = d.ExpiresAt()
		rs, ok := rsyms[d.Resolver]
		if !ok {
			rs = int32(len(sc.resolvers))
			rsyms[d.Resolver] = rs
			sc.resolvers = append(sc.resolvers, resolverStat{addr: d.Resolver})
		}
		sc.rsym[i] = rs
		st := &sc.resolvers[rs]
		if st.lookups == 0 || d.Duration() < st.minDur {
			st.minDur = d.Duration()
		}
		st.lookups++
	}
	return sc
}

// TestParallelSymbolRemapDeterminism pins the chunk-local-to-global
// symbol remap directly: the chunked sidecar build must hand back the
// serial pass's tables, numbering, and fused resolver stats at every
// chunk count, including the adopted single chunk and widths that force
// many small chunks.
func TestParallelSymbolRemapDeterminism(t *testing.T) {
	ds := determinismTrace(t)
	ds.SortByTime()
	if len(ds.DNS) < 100 {
		t.Fatalf("trace too small: %d DNS records", len(ds.DNS))
	}
	ref := serialSidecars(ds.DNS)
	for _, parts := range []int{1, 2, 3, 8} {
		// Call the chunked build directly to get past the size floor
		// buildSidecars applies.
		got, err := buildSidecarChunks(context.Background(), parts, ds.DNS)
		if err != nil {
			t.Fatal(err)
		}
		if got.names.Len() != ref.names.Len() {
			t.Fatalf("parts=%d: %d names, want %d", parts, got.names.Len(), ref.names.Len())
		}
		for s := 0; s < ref.names.Len(); s++ {
			if got.names.Name(trace.Sym(s)) != ref.names.Name(trace.Sym(s)) {
				t.Fatalf("parts=%d: symbol %d = %q, want %q",
					parts, s, got.names.Name(trace.Sym(s)), ref.names.Name(trace.Sym(s)))
			}
		}
		for i := range ref.qsym {
			if got.qsym[i] != ref.qsym[i] || got.rsym[i] != ref.rsym[i] || got.expiry[i] != ref.expiry[i] {
				t.Fatalf("parts=%d: record %d sidecar (%d %d %v), want (%d %d %v)",
					parts, i, got.qsym[i], got.rsym[i], got.expiry[i],
					ref.qsym[i], ref.rsym[i], ref.expiry[i])
			}
		}
		if !reflect.DeepEqual(got.resolvers, ref.resolvers) {
			t.Fatalf("parts=%d: resolvers %v, want %v", parts, got.resolvers, ref.resolvers)
		}
	}
}
