package households

import "testing"

// TestGenerateAllocsPerRecord gates the generator's allocation rate. The
// event loop keeps its events by value in the engine's heap, the stub
// caches hand out their stored answers and recycle their LRU nodes, and
// records outside the window are dropped before they are stored, so what
// still allocates is the resolvers' per-lookup answer slices, interned
// state and the record segments: about 1.3 allocations per emitted
// record, where closures and boxed cache entries made it 7.2.
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
	if perRecord > 2 {
		t.Fatalf("Generate allocates %.2f times per emitted record; want at most 2", perRecord)
	}
}
