package main

// metricSpec is one printed metric: its name and unit as BENCHMARK.json
// lists them.
type metricSpec struct {
	name, unit string
}

// endToEnd is printed by every workload's timed run (--trace 0).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"records_per_s", "1/s"},
	{"peak_mem_bytes", "bytes"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// perLayer is printed by every workload's traced run (--trace 1). A
// workload that makes no call into a layer reports that layer's
// metrics as 0.
var perLayer = []metricSpec{
	{"households.generate_s", "s"},
	{"households.alloc_bytes", "bytes"},
	{"households.gc_cpu_s", "s"},
	{"households.records", "count"},
	{"trace.write_s", "s"},
	{"trace.write_bytes", "bytes"},
	{"trace.write_alloc_bytes", "bytes"},
	{"trace.read_s", "s"},
	{"trace.read_alloc_bytes", "bytes"},
	{"trace.read_gc_cpu_s", "s"},
	{"core.analyze_s", "s"},
	{"core.analyze_alloc_bytes", "bytes"},
	{"core.phase.sort_s", "s"},
	{"core.phase.shard_s", "s"},
	{"core.phase.intern_s", "s"},
	{"core.phase.thresholds_s", "s"},
	{"core.phase.classify_s", "s"},
	{"core.phase.merge_s", "s"},
	{"core.shard_skew", "ratio"},
	{"core.report_s", "s"},
	{"core.report_alloc_bytes", "bytes"},
	{"core.analyze_source_s", "s"},
	{"core.analyze_source_alloc_bytes", "bytes"},
	{"core.phase.ingest-dns_s", "s"},
	{"core.phase.ingest-conns_s", "s"},
	{"core.phase.classify-spill_s", "s"},
	{"core.phase.reduce_s", "s"},
	{"core.spill_partitions", "count"},
	{"bulk.run_s", "s"},
	{"bulk.run_alloc_bytes", "bytes"},
	{"bulk.run_gc_cpu_s", "s"},
	{"bulk.coalesced_frac", "ratio"},
	{"dnsserver.pool_attempts_per_query", "ratio"},
	{"dnsserver.hedge_win_frac", "ratio"},
	{"dnsserver.pool_timeouts", "count"},
	{"dnsserver.server_shed_frac", "ratio"},
	{"chaos.drop_frac", "ratio"},
	{"bench.self_s", "s"},
	{"households.self_s", "s"},
	{"trace.self_s", "s"},
	{"core.self_s", "s"},
	{"bulk.self_s", "s"},
	{"tracing.overhead_frac", "ratio"},
}

// layerMetrics accumulates one traced pass's per-layer values.
type layerMetrics map[string]float64

func (m layerMetrics) add(name string, v float64) {
	if m != nil {
		m[name] += v
	}
}

// call adds a finished call's wall seconds, and, for the metric names
// given (empty to skip), its allocated bytes and GC CPU seconds.
func (m layerMetrics) call(c Call, secName, allocName, gcName string) {
	sec, alloc, gc := c.End()
	m.add(secName, sec)
	if allocName != "" {
		m.add(allocName, alloc)
	}
	if gcName != "" {
		m.add(gcName, gc)
	}
}
