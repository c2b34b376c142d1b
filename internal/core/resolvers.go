package core

import (
	"net/netip"
	"time"

	"dnscontext/internal/resolver"
	"dnscontext/internal/stats"
)

// ConnectivityCheckHost is the Android captive-portal probe hostname whose
// connections the paper filters out of Google's throughput curve (§7).
const ConnectivityCheckHost = "connectivitycheck.gstatic.com"

// deriveThresholds implements §5.3's per-resolver SC/R split: for every
// resolver with at least SCRMinSamples lookups, the minimum observed
// lookup duration approximates the network RTT; lookups not exceeding a
// rounded-up multiple of that minimum are shared-cache hits. The paper
// observes a 2 ms minimum for the local resolvers and uses a 5 ms
// threshold, i.e. roughly 2.5x the minimum; we round 2.5x the minimum up
// to the next millisecond.
//
// Its input is the associative per-resolver (count, minimum) summary —
// accumulated during the in-memory symbol pass, the streaming ingest, or
// a shard merge — so every pipeline derives thresholds with this one
// rule. It returns the thresholds of the gated resolvers by address and
// every resolver's threshold indexed like res.
func deriveThresholds(res []resolverStat, dnsTotal int64, opts *Options) (map[string]time.Duration, []time.Duration) {
	// The paper's gate — 1,000 lookups out of 9.2M (~0.011%) — scales
	// with trace size so shorter captures don't push moderately popular
	// resolvers onto the 5 ms default; Opts.SCRMinSamples caps it.
	gate := dnsTotal / 9200
	if gate < 50 {
		gate = 50
	}
	if gate > int64(opts.SCRMinSamples) {
		gate = int64(opts.SCRMinSamples)
	}
	thresholds := make(map[string]time.Duration)
	thByRes := make([]time.Duration, len(res))
	for i := range res {
		rs := &res[i]
		thByRes[i] = opts.DefaultSCThreshold
		if rs.lookups < gate {
			continue
		}
		th := time.Duration(float64(rs.minDur) * 2.5)
		// Round up to a whole millisecond, mirroring the paper's "small
		// amount of rounding".
		th = ((th + time.Millisecond - 1) / time.Millisecond) * time.Millisecond
		if th < opts.DefaultSCThreshold {
			th = opts.DefaultSCThreshold
		}
		thByRes[i] = th
		thresholds[rs.addr.String()] = th
	}
	return thresholds, thByRes
}

func (a *Analysis) thresholdFor(resolver string) time.Duration {
	if th, ok := a.Thresholds[resolver]; ok {
		return th
	}
	return a.Opts.DefaultSCThreshold
}

// Table1Row is one line of Table 1: a resolver platform's footprint.
type Table1Row struct {
	Platform resolver.PlatformID
	// HousesFraction is the share of houses using the platform at all.
	HousesFraction float64
	// LookupsFraction is the platform's share of DNS transactions.
	LookupsFraction float64
	// ConnsFraction / BytesFraction are the shares of DNS-paired
	// connections (and their volume) tied to the platform.
	ConnsFraction float64
	BytesFraction float64
}

// Table1 computes resolver-platform usage shares. profiles supplies the
// platform address book.
func (a *Analysis) Table1(profiles []resolver.PlatformProfile) []Table1Row {
	type agg struct {
		houses  map[netip.Addr]bool
		lookups int
		conns   int
		bytes   int64
	}
	aggs := make(map[resolver.PlatformID]*agg)
	get := func(id resolver.PlatformID) *agg {
		g, ok := aggs[id]
		if !ok {
			g = &agg{houses: make(map[netip.Addr]bool)}
			aggs[id] = g
		}
		return g
	}

	allHouses := make(map[netip.Addr]bool)
	totalLookups := 0
	for i := range a.DS.DNS {
		d := &a.DS.DNS[i]
		allHouses[d.Client] = true
		id, ok := resolver.PlatformOf(d.Resolver, profiles)
		if !ok {
			continue
		}
		totalLookups++
		g := get(id)
		g.houses[d.Client] = true
		g.lookups++
	}

	var totalConns int
	var totalBytes int64
	for i := range a.Paired {
		pc := &a.Paired[i]
		if pc.DNS < 0 {
			continue
		}
		id, ok := resolver.PlatformOf(a.DS.DNS[pc.DNS].Resolver, profiles)
		if !ok {
			continue
		}
		totalConns++
		c := &a.DS.Conns[pc.Conn]
		totalBytes += c.TotalBytes()
		g := get(id)
		g.conns++
		g.bytes += c.TotalBytes()
	}

	var rows []Table1Row
	for _, p := range profiles {
		g := aggs[p.ID]
		if g == nil {
			continue
		}
		row := Table1Row{Platform: p.ID}
		if len(allHouses) > 0 {
			row.HousesFraction = float64(len(g.houses)) / float64(len(allHouses))
		}
		if totalLookups > 0 {
			row.LookupsFraction = float64(g.lookups) / float64(totalLookups)
		}
		if totalConns > 0 {
			row.ConnsFraction = float64(g.conns) / float64(totalConns)
		}
		if totalBytes > 0 {
			row.BytesFraction = float64(g.bytes) / float64(totalBytes)
		}
		rows = append(rows, row)
	}
	return rows
}

// ResolverPerformance bundles §7's per-platform comparison.
type ResolverPerformance struct {
	// HitRate is SC/(SC+R) per platform (paper: Cloudflare 83.6%, Local
	// 71.2%, OpenDNS 58.8%, Google 23.0%).
	HitRate map[resolver.PlatformID]float64
	// RDelays is Figure 3 top: the distribution of lookup durations (ms)
	// behind R connections, per platform.
	RDelays map[resolver.PlatformID]*stats.ECDF
	// Throughput is Figure 3 bottom: the distribution of connection
	// throughput (bits/s) for SC∪R connections, per platform.
	Throughput map[resolver.PlatformID]*stats.ECDF
	// GoogleNoCC is Google's throughput curve with connectivity-check
	// probes removed (the dashed line).
	GoogleNoCC *stats.ECDF
	// GoogleCCFraction is the share of Google-paired SC∪R connections
	// that are connectivity checks (paper: 23.5%).
	GoogleCCFraction float64
	// NonGoogleCCFraction is the same share for the other platforms
	// combined (paper: 0.3%).
	NonGoogleCCFraction float64
}

// ResolverPerformance computes the §7 comparison.
func (a *Analysis) ResolverPerformance(profiles []resolver.PlatformProfile) ResolverPerformance {
	out := ResolverPerformance{
		HitRate:    make(map[resolver.PlatformID]float64),
		RDelays:    make(map[resolver.PlatformID]*stats.ECDF),
		Throughput: make(map[resolver.PlatformID]*stats.ECDF),
		GoogleNoCC: stats.NewECDF(0),
	}
	sc := make(map[resolver.PlatformID]int)
	rr := make(map[resolver.PlatformID]int)
	var googleConns, googleCC, otherConns, otherCC int

	for i := range a.Paired {
		pc := &a.Paired[i]
		if pc.Class != ClassSC && pc.Class != ClassR {
			continue
		}
		d := &a.DS.DNS[pc.DNS]
		id, ok := resolver.PlatformOf(d.Resolver, profiles)
		if !ok {
			continue
		}
		conn := &a.DS.Conns[pc.Conn]
		isCC := d.Query == ConnectivityCheckHost

		if pc.Class == ClassSC {
			sc[id]++
		} else {
			rr[id]++
			if out.RDelays[id] == nil {
				out.RDelays[id] = stats.NewECDF(0)
			}
			out.RDelays[id].Add(float64(d.Duration()) / float64(time.Millisecond))
		}

		tput := conn.ThroughputBps()
		if out.Throughput[id] == nil {
			out.Throughput[id] = stats.NewECDF(0)
		}
		out.Throughput[id].Add(tput)
		if id == resolver.PlatformGoogle {
			googleConns++
			if isCC {
				googleCC++
			} else {
				out.GoogleNoCC.Add(tput)
			}
		} else {
			otherConns++
			if isCC {
				otherCC++
			}
		}
	}
	for id := range sc {
		if sc[id]+rr[id] > 0 {
			out.HitRate[id] = float64(sc[id]) / float64(sc[id]+rr[id])
		}
	}
	for id := range rr {
		if _, ok := out.HitRate[id]; !ok {
			out.HitRate[id] = 0
		}
	}
	if googleConns > 0 {
		out.GoogleCCFraction = float64(googleCC) / float64(googleConns)
	}
	if otherConns > 0 {
		out.NonGoogleCCFraction = float64(otherCC) / float64(otherConns)
	}
	return out
}
