package households

import (
	"net/netip"
	"testing"
	"time"

	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
	"dnscontext/internal/zonedb"
)

// TestGenerateAllocsPerRecord gates the generator's allocation rate. The
// event loop keeps its events by value in the engine's heap, the stub
// and resolver caches key on name symbols and recycle their LRU nodes,
// the authority hands out its shared answer table, the finisher recycles
// its request batches, and records outside the window are dropped before
// they are stored, so what still allocates is the resolvers' remaining-
// TTL copies, interned state and the record segments: about 0.6
// allocations per emitted record, where string keys and per-miss answer
// slices made it 1.3, and closures and boxed cache entries 7.2.
func TestGenerateAllocsPerRecord(t *testing.T) {
	cfg := SmallConfig(3)
	records := 0
	allocs := testing.AllocsPerRun(1, func() {
		ds, _, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		records = len(ds.DNS) + len(ds.Conns)
	})
	if records == 0 {
		t.Fatal("empty trace")
	}
	perRecord := allocs / float64(records)
	t.Logf("%.0f allocations for %d records: %.2f per record", allocs, records, perRecord)
	if perRecord > 1 {
		t.Fatalf("Generate allocates %.2f times per emitted record; want at most 1", perRecord)
	}
}

// TestFinisherBatchCycleAllocs gates the finisher's steady state: once
// its batches exist, queueing a batch of requests of every transfer
// kind, handing it over, drawing the transfers and recycling the batch
// allocate nothing. Kept records cost only the emission segment they
// land in, one per segmentLen records.
func TestFinisherBatchCycleAllocs(t *testing.T) {
	const hi = time.Hour
	specs := []xferSpec{
		serviceXfer(zonedb.ServiceWeb, 1),
		serviceXfer(zonedb.ServiceVideo, 0.45),
		{kind: xferP2P},
		{kind: xferNTP, dead: true},
		{kind: xferNTP},
		{kind: xferFixed, fixed: transfer{origBytes: 150, respBytes: 300, duration: time.Millisecond}},
	}
	addr := netip.AddrFrom4([4]byte{10, 1, 0, 1})
	f := startFinisher(newTransferModel(stats.NewRNG(1)), 0, hi)
	defer f.close()
	cycle := func(start time.Duration) func() {
		return func() {
			for i := 0; i < batchLen; i++ {
				f.add(connReq{start: start, orig: addr, port: uint16(i), remote: addr, rport: 443,
					proto: trace.TCP, xfer: specs[i%len(specs)]})
			}
		}
	}
	dropped, kept := cycle(hi+time.Second), cycle(time.Minute)
	for range 2 * maxBatches {
		dropped()
	}
	if allocs := testing.AllocsPerRun(50, dropped); allocs != 0 {
		t.Fatalf("a warmed finisher batch cycle allocates %.2f times; want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, kept); allocs > 1 {
		t.Fatalf("a batch of kept records allocates %.2f times; want at most its one segment", allocs)
	}
}
