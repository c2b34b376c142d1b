package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sort"
	"time"

	"dnscontext/internal/checkpoint"
)

// AnalysisShard is a mergeable partial analysis: everything the
// classification of one slice of a trace produces, minus anything that
// depends on seeing the whole trace. It is the map-side output of the
// out-of-core pipeline — AnalyzeSource folds per-client results into
// one, and independent processes can each CollectShard over their slice
// of a trace, serialize the shards (WriteShardFile), and reduce them
// with Merge + Finalize into the same *Analysis a single in-memory run
// would produce.
//
// What makes the merge exact is that a shard stores per-connection
// *pairing facts* (which lookup paired, the gap, first-use and expiry
// flags, the lookup's duration and resolver) rather than final classes.
// The SC/R split depends on per-resolver duration thresholds derived
// from whole-trace statistics, so a shard carries each resolver's
// (lookup count, minimum duration) — an associative, commutative
// summary — and Finalize re-derives the thresholds from the merged
// statistics before assigning classes. Merging is therefore associative
// and commutative: any grouping or ordering of the same shards
// finalizes to identical results.
//
// The one sharding requirement is that a client's records must not be
// split across shard inputs: pairing and first-use are per-client
// notions, and Merge refuses shards whose client sets overlap. (Under
// PairRandom, ambiguous pairings additionally draw from RNG streams
// seeded by process-local shard ranks, so cross-process merges are only
// guaranteed bit-identical under PairMostRecent, the default.)
type AnalysisShard struct {
	opts      Options
	dnsTotal  int64
	connTotal int64
	resolvers []resolverStat
	failures  FailureStats
	clients   []clientResult
}

// resolverStat is one resolver's associative duration summary: enough
// to re-derive its SC/R threshold after any number of merges.
type resolverStat struct {
	addr    netip.Addr
	lookups int64
	minDur  time.Duration
}

// observe folds one lookup's duration into the summary.
func (rs *resolverStat) observe(d time.Duration) {
	if rs.lookups == 0 || d < rs.minDur {
		rs.minDur = d
	}
	rs.lookups++
}

// add folds another summary of the same resolver into rs.
func (rs *resolverStat) add(o resolverStat) {
	if rs.lookups == 0 || o.minDur < rs.minDur {
		rs.minDur = o.minDur
	}
	rs.lookups += o.lookups
}

// clientResult is one client's classified slice: the number of DNS
// transactions it issued and one entry per connection, in start-time
// order.
type clientResult struct {
	client  netip.Addr
	nDNS    int32
	entries []connEntry
}

// connEntry is one connection's pairing facts, the shard analogue of
// PairedConn with dataset indices replaced by client-local ones.
type connEntry struct {
	// localDNS indexes the paired lookup within the client's own
	// DNS-record sequence (time order), or -1 when unpaired. Client-local
	// indexing is what keeps entries meaningful across processes that
	// never saw each other's datasets.
	localDNS   int32
	candidates int32
	// lookupDur and res (an index into the shard's resolver table, -1
	// when unpaired) defer the SC/R decision to classification time,
	// where thresholds exist.
	res         int32
	firstUse    bool
	usedExpired bool
	gap         time.Duration
	lookupDur   time.Duration
}

// ErrShardMismatch is matched (via errors.Is) when shards produced
// under different result-affecting options — or covering overlapping
// clients — refuse to merge.
var ErrShardMismatch = errors.New("analysis shards are incompatible")

// DNSTotal is the number of DNS transactions the shard covers.
func (s *AnalysisShard) DNSTotal() int { return int(s.dnsTotal) }

// ConnTotal is the number of connections the shard covers.
func (s *AnalysisShard) ConnTotal() int { return int(s.connTotal) }

// Clients is the number of distinct clients the shard covers.
func (s *AnalysisShard) Clients() int { return len(s.clients) }

// Merge combines two shards into a new one, leaving both inputs
// unchanged. It is associative and commutative; see the type comment
// for the exactness argument. Shards from runs with different
// result-affecting options, or with overlapping client sets, return an
// error wrapping ErrShardMismatch.
func (s *AnalysisShard) Merge(o *AnalysisShard) (*AnalysisShard, error) {
	if !sameResultOptions(&s.opts, &o.opts) {
		return nil, fmt.Errorf("%w: produced under different analysis options", ErrShardMismatch)
	}
	have := make(map[netip.Addr]bool, len(s.clients))
	for i := range s.clients {
		have[s.clients[i].client] = true
	}
	for i := range o.clients {
		if have[o.clients[i].client] {
			return nil, fmt.Errorf("%w: client %s appears in both shards (clients must not be split across shard inputs)",
				ErrShardMismatch, o.clients[i].client)
		}
	}

	m := &AnalysisShard{
		opts:      s.opts,
		dnsTotal:  s.dnsTotal + o.dnsTotal,
		connTotal: s.connTotal + o.connTotal,
		failures:  s.failures,
		resolvers: append([]resolverStat(nil), s.resolvers...),
	}
	m.failures.add(o.failures)
	// Remap o's resolver symbols into the merged table: each shard
	// numbered resolvers in its own first-appearance order, so the merge
	// rebinds by address and sums the associative stats.
	pos := make(map[netip.Addr]int32, len(m.resolvers))
	for i := range m.resolvers {
		pos[m.resolvers[i].addr] = int32(i)
	}
	remap := make([]int32, len(o.resolvers))
	for i := range o.resolvers {
		rs := &o.resolvers[i]
		p, ok := pos[rs.addr]
		if !ok {
			p = int32(len(m.resolvers))
			pos[rs.addr] = p
			m.resolvers = append(m.resolvers, resolverStat{addr: rs.addr})
		}
		m.resolvers[p].add(*rs)
		remap[i] = p
	}

	m.clients = append(m.clients, s.clients...)
	for i := range o.clients {
		c := o.clients[i]
		if needsRemap(c.entries, remap) {
			entries := append([]connEntry(nil), c.entries...)
			for j := range entries {
				if entries[j].res >= 0 {
					entries[j].res = remap[entries[j].res]
				}
			}
			c.entries = entries
		}
		m.clients = append(m.clients, c)
	}
	return m, nil
}

// needsRemap reports whether any entry's resolver symbol would change
// under remap, so Merge can share entry slices in the common case of
// identical resolver numbering.
func needsRemap(entries []connEntry, remap []int32) bool {
	for i := range entries {
		if r := entries[i].res; r >= 0 && remap[r] != r {
			return true
		}
	}
	return false
}

// MergeShards folds any number of shards into one. At least one shard
// is required.
func MergeShards(shards ...*AnalysisShard) (*AnalysisShard, error) {
	if len(shards) == 0 {
		return nil, errors.New("dnscontext: no shards to merge")
	}
	m := shards[0]
	for _, s := range shards[1:] {
		var err error
		if m, err = m.Merge(s); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Finalize reduces the shard to a summary-grade *Analysis: it
// re-derives the per-resolver SC/R thresholds from the merged resolver
// statistics with the same deriveThresholds the in-memory pipeline
// runs, assigns each connection its Table 2 class from the stored
// pairing facts, and tallies the totals. The result reports
// classification (Count/Fraction/Table2/BlockedFraction/
// SharedCacheHitRate), Thresholds, Failures, Digest, and WriteSummary
// exactly as the in-memory path would; see Analysis.Summary for what a
// summary analysis cannot do.
func (s *AnalysisShard) Finalize() *Analysis {
	failures := s.failures
	a := &Analysis{
		Opts:      s.opts,
		summary:   true,
		dnsTotal:  int(s.dnsTotal),
		connTotal: int(s.connTotal),
		failures:  &failures,
		resolvers: s.resolvers,
		clients:   s.clients,
	}
	a.Thresholds, a.thByRsym = deriveThresholds(s.resolvers, s.dnsTotal, &s.opts)
	digest, counts := a.fold()
	a.classCounts = counts
	a.digestOnce.Do(func() { a.digest = digest })
	return a
}

// entryClass is the Table 2 decision tree: it derives a connection's
// class from its pairing facts and the per-resolver thresholds.
func entryClass(e *connEntry, opts *Options, thByRes []time.Duration) Class {
	if e.localDNS < 0 {
		return ClassN
	}
	if e.gap > opts.BlockThreshold {
		// Record was on hand: local cache or prefetch.
		if e.firstUse {
			return ClassP
		}
		return ClassLC
	}
	// Blocked on the lookup: shared cache vs full resolution, decided by
	// the per-resolver duration threshold.
	if e.lookupDur <= thByRes[e.res] {
		return ClassSC
	}
	return ClassR
}

// Shard returns the analysis as the equivalent AnalysisShard, the
// bridge that lets a resident run participate in a distributed merge
// (and the reference point the streaming path is tested against). The
// shard shares the analysis's per-client pairing facts and resolver
// statistics; neither side mutates them.
func (a *Analysis) Shard() *AnalysisShard {
	return &AnalysisShard{
		opts:      a.Opts,
		dnsTotal:  int64(a.dnsTotal),
		connTotal: int64(a.connTotal),
		failures:  a.Failures(),
		resolvers: a.resolvers,
		clients:   a.clients,
	}
}

// Digest is an order-independent fingerprint of every per-connection
// outcome (pairing, gap, flags, class) plus the totals: per-client FNV
// hashes XOR-folded, so it is identical for every worker count,
// client order, and shard grouping. Equal digests across the in-memory,
// streaming, and merged paths are the parity tests' success criterion.
// A full analysis folds it on first use, off the analysis's timed path.
func (a *Analysis) Digest() uint64 {
	a.digestOnce.Do(func() { a.digest, _ = a.fold() })
	return a.digest
}

// fold classifies every per-client entry with entryClass, returning
// the digest and the per-class tally.
func (a *Analysis) fold() (digest uint64, counts [numClasses]int) {
	for i := range a.clients {
		c := &a.clients[i]
		h := newDigest()
		h.addr(c.client)
		h.u64(uint64(c.nDNS))
		for j := range c.entries {
			e := &c.entries[j]
			class := entryClass(e, &a.Opts, a.thByRsym)
			counts[class]++
			h.entry(e, class)
		}
		digest ^= uint64(h)
	}
	h := newDigest()
	h.u64(uint64(a.connTotal))
	h.u64(uint64(a.dnsTotal))
	return digest ^ uint64(h), counts
}

// digestHash is an inline FNV-64a accumulator.
type digestHash uint64

func newDigest() digestHash { return 0xcbf29ce484222325 }

func (h *digestHash) bytes(b []byte) {
	v := uint64(*h)
	for _, c := range b {
		v ^= uint64(c)
		v *= 0x100000001b3
	}
	*h = digestHash(v)
}

func (h *digestHash) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.bytes(b[:])
}

func (h *digestHash) addr(a netip.Addr) {
	b := a.As16()
	h.bytes(b[:])
}

// entry folds one connection outcome. Resolver symbols are shard-local
// and therefore excluded; the class (which the resolver's threshold
// decided) stands in for them.
func (h *digestHash) entry(e *connEntry, class Class) {
	h.u64(uint64(uint32(e.localDNS)))
	h.u64(uint64(e.gap))
	h.u64(uint64(uint32(e.candidates)))
	var flags uint64
	if e.firstUse {
		flags |= 1
	}
	if e.usedExpired {
		flags |= 2
	}
	h.u64(flags)
	h.u64(uint64(class))
}

// shardFileVersion is the on-disk format version of serialized shards,
// carried in the same checkpoint envelope (magic, CRC, atomic rename)
// analyzer snapshots use.
const shardFileVersion = 1

// WriteShardFile atomically serializes the shard to path. The encoding
// is canonical — resolvers and clients are written in address order —
// so shards that merge to the same state serialize to the same bytes
// regardless of the order their inputs arrived in.
func WriteShardFile(path string, s *AnalysisShard) error {
	return checkpoint.Save(path, shardFileVersion, s.encode())
}

// ReadShardFile loads a shard written by WriteShardFile.
func ReadShardFile(path string) (*AnalysisShard, error) {
	payload, err := checkpoint.Load(path, shardFileVersion)
	if err != nil {
		return nil, err
	}
	return decodeShardPayload(payload)
}

// encode serializes the shard. Layout (little-endian):
//
//	options: 8 result-affecting fields (see appendOptions)
//	i64 dnsTotal, i64 connTotal
//	failures: 5 x i64
//	u32 nResolvers; per resolver (addr order): addr, i64 lookups, i64 min
//	u32 nClients; per client (addr order): addr, i32 nDNS, u32 nEntries;
//	  per entry: i32 localDNS, i64 gap, i32 candidates, u8 flags,
//	  i64 lookupDur, i32 res
//
// where addr is u8 length + raw bytes, and entry res symbols are
// rewritten to the address-ordered resolver numbering.
func (s *AnalysisShard) encode() []byte {
	le := binary.LittleEndian
	b := appendOptions(nil, &s.opts)
	put64 := func(v int64) { b = le.AppendUint64(b, uint64(v)) }
	put32 := func(v int32) { b = le.AppendUint32(b, uint32(v)) }
	putAddr := func(a netip.Addr) {
		raw := a.AsSlice()
		b = append(append(b, uint8(len(raw))), raw...)
	}
	f := &s.failures
	for _, v := range []int64{s.dnsTotal, s.connTotal, int64(f.Lookups), int64(f.ServFails),
		int64(f.Retried), int64(f.TotalRetries), int64(f.TCPFallbacks)} {
		put64(v)
	}

	// Canonical resolver order, with a remap from the in-memory
	// first-appearance numbering.
	order := sortedBy(len(s.resolvers), func(i int) netip.Addr { return s.resolvers[i].addr })
	remap := make([]int32, len(s.resolvers))
	for canon, orig := range order {
		remap[orig] = int32(canon)
	}
	put32(int32(len(s.resolvers)))
	for _, orig := range order {
		rs := &s.resolvers[orig]
		putAddr(rs.addr)
		put64(rs.lookups)
		put64(int64(rs.minDur))
	}

	corder := sortedBy(len(s.clients), func(i int) netip.Addr { return s.clients[i].client })
	put32(int32(len(s.clients)))
	for _, ci := range corder {
		c := &s.clients[ci]
		putAddr(c.client)
		put32(c.nDNS)
		put32(int32(len(c.entries)))
		for j := range c.entries {
			e := &c.entries[j]
			res := e.res
			if res >= 0 {
				res = remap[res]
			}
			var flags uint8
			if e.firstUse {
				flags |= 1
			}
			if e.usedExpired {
				flags |= 2
			}
			put32(e.localDNS)
			put64(int64(e.gap))
			put32(e.candidates)
			b = append(b, flags)
			put64(int64(e.lookupDur))
			put32(res)
		}
	}
	return b
}

// sortedBy returns the indices [0, n) ordered by ascending address.
func sortedBy(n int, addr func(int) netip.Addr) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return addr(int(order[i])).Compare(addr(int(order[j]))) < 0 })
	return order
}

// appendOptions appends the encoding's options block: every option
// that influences analysis results. Workers is deliberately excluded
// (results are worker-count invariant), as are the observation hooks,
// the checkpoint config, and the streaming memory budget (spilling
// never changes the answer, only where intermediate state lives).
func appendOptions(b []byte, o *Options) []byte {
	le := binary.LittleEndian
	b = le.AppendUint64(b, uint64(o.BlockThreshold))
	b = le.AppendUint64(b, uint64(o.KneeThreshold))
	b = le.AppendUint64(b, uint64(o.SCRMinSamples))
	b = le.AppendUint64(b, uint64(o.DefaultSCThreshold))
	b = append(b, uint8(o.Pairing))
	b = le.AppendUint64(b, o.Seed)
	b = le.AppendUint64(b, uint64(o.InsignificantAbs))
	return le.AppendUint64(b, math.Float64bits(o.InsignificantRel))
}

// sameResultOptions reports whether two option sets produce the same
// analysis results: shards (and checkpoints) only combine under equal
// options blocks.
func sameResultOptions(a, b *Options) bool {
	return bytes.Equal(appendOptions(nil, a), appendOptions(nil, b))
}

// Smallest encodings of one resolver, client, and entry: the decoder
// bounds every count by the payload bytes that remain, so a corrupt
// count fails as truncation instead of driving a huge allocation.
const (
	minResolverBytes = 1 + 4 + 8 + 8
	minClientBytes   = 1 + 4 + 4 + 4
	entryBytes       = 4 + 8 + 4 + 1 + 8 + 4
)

// payloadReader is a little-endian cursor over a payload with a sticky
// error: after the first failure every read yields zero, so decoding
// code checks once per section instead of once per field.
type payloadReader struct {
	b   []byte
	err error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *payloadReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.fail("truncated payload: need %d bytes, %d left", n, len(r.b))
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *payloadReader) u8() uint8 {
	if v := r.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *payloadReader) i32() int32 {
	if v := r.take(4); v != nil {
		return int32(binary.LittleEndian.Uint32(v))
	}
	return 0
}

func (r *payloadReader) i64() int64 {
	if v := r.take(8); v != nil {
		return int64(binary.LittleEndian.Uint64(v))
	}
	return 0
}

// count reads a u32 element count and checks that the remaining payload
// could hold that many elements of at least minBytes each.
func (r *payloadReader) count(what string, minBytes int) int {
	n := int64(uint32(r.i32()))
	if r.err == nil && n*int64(minBytes) > int64(len(r.b)) {
		r.fail("%d %s cannot fit in the %d bytes left", n, what, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// addr reads a length-prefixed address that must sort strictly after
// prev: the encoder writes resolvers and clients in ascending address
// order, so a duplicate or out-of-order address is corruption.
func (r *payloadReader) addr(prev netip.Addr) netip.Addr {
	raw := r.take(int(r.u8()))
	if r.err != nil {
		return netip.Addr{}
	}
	a, ok := netip.AddrFromSlice(raw)
	switch {
	case !ok:
		r.fail("bad address length %d", len(raw))
	case prev.IsValid() && prev.Compare(a) >= 0:
		r.fail("address %s out of order after %s", a, prev)
	}
	return a
}

// decodeShardPayload parses an encoded shard, rejecting anything a
// later Merge, Finalize, or checkpoint restore could not use safely:
// counts beyond the payload, non-canonical address order, lookup
// indices outside the client's range, resolver symbols outside the
// table, and totals that disagree with the per-client sums.
func decodeShardPayload(payload []byte) (*AnalysisShard, error) {
	r := &payloadReader{b: payload}
	s := &AnalysisShard{}
	o := &s.opts
	o.BlockThreshold = time.Duration(r.i64())
	o.KneeThreshold = time.Duration(r.i64())
	o.SCRMinSamples = int(r.i64())
	o.DefaultSCThreshold = time.Duration(r.i64())
	o.Pairing = PairingPolicy(r.u8())
	o.Seed = uint64(r.i64())
	o.InsignificantAbs = time.Duration(r.i64())
	o.InsignificantRel = math.Float64frombits(uint64(r.i64()))
	s.dnsTotal, s.connTotal = r.i64(), r.i64()
	f := &s.failures
	for _, v := range []*int{&f.Lookups, &f.ServFails, &f.Retried, &f.TotalRetries, &f.TCPFallbacks} {
		*v = int(r.i64())
	}

	nRes := r.count("resolvers", minResolverBytes)
	s.resolvers = make([]resolverStat, nRes)
	var prev netip.Addr
	for i := range s.resolvers {
		rs := &s.resolvers[i]
		rs.addr = r.addr(prev)
		rs.lookups, rs.minDur = r.i64(), time.Duration(r.i64())
		prev = rs.addr
	}

	s.clients = make([]clientResult, r.count("clients", minClientBytes))
	prev = netip.Addr{}
	var sumDNS, sumConns int64
	for i := 0; i < len(s.clients) && r.err == nil; i++ {
		c := &s.clients[i]
		c.client = r.addr(prev)
		prev = c.client
		c.nDNS = r.i32()
		if c.nDNS < 0 {
			r.fail("client %s: negative lookup count %d", c.client, c.nDNS)
		}
		if n := r.count("entries", entryBytes); n > 0 {
			c.entries = make([]connEntry, n)
		}
		sumDNS += int64(c.nDNS)
		sumConns += int64(len(c.entries))
		for j := 0; j < len(c.entries) && r.err == nil; j++ {
			e := &c.entries[j]
			e.localDNS = r.i32()
			e.gap = time.Duration(r.i64())
			e.candidates = r.i32()
			flags := r.u8()
			e.firstUse, e.usedExpired = flags&1 != 0, flags&2 != 0
			e.lookupDur = time.Duration(r.i64())
			e.res = r.i32()
			switch {
			case e.localDNS < -1 || e.localDNS >= c.nDNS:
				r.fail("client %s: lookup index %d outside [-1, %d)", c.client, e.localDNS, c.nDNS)
			case e.localDNS >= 0 && (e.res < 0 || int(e.res) >= nRes):
				r.fail("client %s: resolver symbol %d outside [0, %d)", c.client, e.res, nRes)
			case e.localDNS < 0 && e.res != -1:
				r.fail("client %s: unpaired connection carries resolver symbol %d", c.client, e.res)
			}
		}
	}
	switch {
	case r.err != nil:
	case len(r.b) != 0:
		r.fail("%d trailing bytes", len(r.b))
	case sumConns != s.connTotal:
		r.fail("clients hold %d connections, totals say %d", sumConns, s.connTotal)
	case sumDNS != s.dnsTotal:
		r.fail("clients hold %d lookups, totals say %d", sumDNS, s.dnsTotal)
	}
	if r.err != nil {
		return nil, fmt.Errorf("dnscontext: shard file: %w", r.err)
	}
	return s, nil
}
