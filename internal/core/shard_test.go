package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"dnscontext/internal/trace"
)

// collectShards splits the determinism trace into n client-disjoint
// slices and collects one shard per slice.
func collectShards(t *testing.T, n int, opts Options) []*AnalysisShard {
	t.Helper()
	ds := determinismTrace(t)
	shards := make([]*AnalysisShard, n)
	for i, part := range splitByClient(ds, n) {
		part.SortByTime()
		sh, err := CollectShard(context.Background(), trace.NewDatasetSource(part), opts)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sh
	}
	return shards
}

// TestMergeAssociativeCommutative is the satellite property test: any
// grouping and any ordering of the same shards must merge to the same
// state — checked through the canonical encoding, which is independent
// of merge order by construction, and through the finalized digest.
func TestMergeAssociativeCommutative(t *testing.T) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	shards := collectShards(t, 5, opts)

	left, err := MergeShards(shards...)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := left.encode()
	wantDigest := left.Finalize().Digest()

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(shards))
		// Fold in a random tree shape: repeatedly merge two random
		// elements of the worklist until one remains.
		work := make([]*AnalysisShard, len(shards))
		for i, p := range perm {
			work[i] = shards[p]
		}
		for len(work) > 1 {
			i := rng.Intn(len(work) - 1)
			m, err := work[i].Merge(work[i+1])
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			work = append(work[:i], append([]*AnalysisShard{m}, work[i+2:]...)...)
		}
		if got := work[0].encode(); !bytes.Equal(got, wantBytes) {
			t.Fatalf("trial %d: merged shard encoding differs from reference grouping", trial)
		}
		if got := work[0].Finalize().Digest(); got != wantDigest {
			t.Fatalf("trial %d: merged digest %#016x, want %#016x", trial, got, wantDigest)
		}
	}
}

// TestMergeLeavesInputsUnchanged checks Merge is a pure fold: the
// operands' encodings are byte-identical before and after.
func TestMergeLeavesInputsUnchanged(t *testing.T) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	shards := collectShards(t, 2, opts)
	before0, before1 := shards[0].encode(), shards[1].encode()
	if _, err := shards[0].Merge(shards[1]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[0].encode(), before0) || !bytes.Equal(shards[1].encode(), before1) {
		t.Error("Merge mutated an input shard")
	}
}

// TestMergeRejectsMismatchedOptions checks shards produced under
// different result-affecting options refuse to merge.
func TestMergeRejectsMismatchedOptions(t *testing.T) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	a := collectShards(t, 2, opts)
	opts.Seed = 99
	b := collectShards(t, 2, opts)
	if _, err := a[0].Merge(b[1]); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("mismatched options merged: err=%v", err)
	}
}

// TestMergeRejectsOverlappingClients checks the client-disjointness
// requirement: merging a shard with itself must fail.
func TestMergeRejectsOverlappingClients(t *testing.T) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	shards := collectShards(t, 2, opts)
	if _, err := shards[0].Merge(shards[0]); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("overlapping clients merged: err=%v", err)
	}
}

// TestShardFileRoundTrip checks WriteShardFile/ReadShardFile preserve
// the shard exactly (canonical bytes and finalized digest) and that the
// loader rejects corrupt payloads.
func TestShardFileRoundTrip(t *testing.T) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	shards := collectShards(t, 2, opts)
	merged, err := MergeShards(shards...)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range append(shards, merged) {
		path := filepath.Join(t.TempDir(), "shard.bin")
		if err := WriteShardFile(path, sh); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		got, err := ReadShardFile(path)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if !bytes.Equal(got.encode(), sh.encode()) {
			t.Errorf("shard %d: round-trip changed the canonical encoding", i)
		}
		if got.Finalize().Digest() != sh.Finalize().Digest() {
			t.Errorf("shard %d: round-trip changed the finalized digest", i)
		}
	}
}

// TestShardDecodeRejectsTruncation checks every truncation point of a
// serialized shard fails decoding instead of yielding a partial shard.
func TestShardDecodeRejectsTruncation(t *testing.T) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	sh := collectShards(t, 1, opts)[0]
	payload := sh.encode()
	if _, err := decodeShardPayload(payload); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut += 1 + len(payload)/97 {
		if _, err := decodeShardPayload(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(payload))
		}
	}
	if _, err := decodeShardPayload(append(payload, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestShardEncodingCanonical checks shards merged in different orders
// serialize to identical bytes — the property that makes shard files
// content-addressable regardless of collector scheduling.
func TestShardEncodingCanonical(t *testing.T) {
	opts := DefaultOptions()
	opts.SCRMinSamples = 50
	shards := collectShards(t, 3, opts)
	ab, err := shards[0].Merge(shards[1])
	if err != nil {
		t.Fatal(err)
	}
	abc, err := ab.Merge(shards[2])
	if err != nil {
		t.Fatal(err)
	}
	cb, err := shards[2].Merge(shards[1])
	if err != nil {
		t.Fatal(err)
	}
	cba, err := cb.Merge(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(abc.encode(), cba.encode()) {
		t.Error("merge order changed the canonical encoding")
	}
}

// craftedShard is a minimal valid shard: one resolver, one client with
// two lookups, one paired and one unpaired connection.
func craftedShard() *AnalysisShard {
	return &AnalysisShard{
		opts:      DefaultOptions(),
		dnsTotal:  2,
		connTotal: 2,
		failures:  FailureStats{Lookups: 2},
		resolvers: []resolverStat{{addr: netip.MustParseAddr("192.0.2.53"), lookups: 2, minDur: 2 * time.Millisecond}},
		clients: []clientResult{{
			client: netip.MustParseAddr("10.0.0.1"),
			nDNS:   2,
			entries: []connEntry{
				{localDNS: 1, candidates: 1, res: 0, firstUse: true, gap: time.Millisecond, lookupDur: 3 * time.Millisecond},
				{localDNS: -1, res: -1},
			},
		}},
	}
}

// Byte offsets of the u32 counts in craftedShard's encoding.
var (
	craftedResolverCount = len(appendOptions(nil, &Options{})) + 7*8
	craftedClientCount   = craftedResolverCount + 4 + minResolverBytes
	craftedEntryCount    = craftedClientCount + 4 + 1 + 4 + 4
)

// craftedPaired encodes craftedShard with the paired entry's resolver
// symbol replaced: Finalize indexes the threshold table with it.
func craftedPaired(res int32) []byte {
	s := craftedShard()
	s.clients[0].entries[0].res = res
	return s.encode()
}

// craftedLookupIndex encodes craftedShard with the paired entry's
// client-local lookup index replaced.
func craftedLookupIndex(localDNS int32) []byte {
	s := craftedShard()
	s.clients[0].entries[0].localDNS = localDNS
	return s.encode()
}

// craftedCount encodes craftedShard with the u32 count at off replaced,
// and the connection total raised to match so no total caps the claim.
func craftedCount(off int, n uint32) []byte {
	b := craftedShard().encode()
	binary.LittleEndian.PutUint32(b[off:], n)
	binary.LittleEndian.PutUint64(b[craftedResolverCount-6*8:], uint64(n))
	return b
}

func TestCraftedShardDecodes(t *testing.T) {
	s, err := decodeShardPayload(craftedShard().encode())
	if err != nil {
		t.Fatal(err)
	}
	if a := s.Finalize(); a.Count(ClassSC) != 1 || a.Count(ClassN) != 1 {
		t.Fatalf("crafted shard finalized to %v", a.Table2())
	}
	for _, off := range []int{craftedResolverCount, craftedClientCount, craftedEntryCount} {
		if got := binary.LittleEndian.Uint32(craftedShard().encode()[off:]); got == 0 || got > 2 {
			t.Fatalf("offset %d holds %d, not a count", off, got)
		}
	}
}

// TestShardDecodeRejectsPairedWithoutResolver: a paired entry must name
// a resolver, or Finalize would index the threshold table with -1.
func TestShardDecodeRejectsPairedWithoutResolver(t *testing.T) {
	for _, res := range []int32{-1, -7} {
		if _, err := decodeShardPayload(craftedPaired(res)); err == nil {
			t.Errorf("paired entry with resolver symbol %d decoded", res)
		}
	}
}

// TestShardDecodeRejectsLookupIndexOutOfRange: client-local lookup
// indices lie in [-1, nDNS), and nDNS is never negative.
func TestShardDecodeRejectsLookupIndexOutOfRange(t *testing.T) {
	for _, l := range []int32{2, 1 << 30, -2} {
		if _, err := decodeShardPayload(craftedLookupIndex(l)); err == nil {
			t.Errorf("lookup index %d of 2 decoded", l)
		}
	}
	s := craftedShard()
	s.clients[0].nDNS, s.dnsTotal = -2, -2
	s.clients[0].entries[0].localDNS = -1
	s.clients[0].entries[0].res = -1
	if _, err := decodeShardPayload(s.encode()); err == nil {
		t.Error("negative lookup count decoded")
	}
}

// TestShardDecodeBoundsCounts: a valid-looking header claiming 2^31
// resolvers, clients, or entries must fail as truncation, not allocate
// for the claim.
func TestShardDecodeBoundsCounts(t *testing.T) {
	for _, off := range []int{craftedResolverCount, craftedClientCount, craftedEntryCount} {
		payload := craftedCount(off, 1<<31)
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := decodeShardPayload(payload); err == nil {
				t.Fatalf("count 2^31 at offset %d decoded", off)
			}
		})
		if allocs > 64 {
			t.Errorf("count 2^31 at offset %d: %.0f allocations", off, allocs)
		}
	}
	// The 117-byte header alone, claiming 2^31 resolvers.
	if _, err := decodeShardPayload(craftedCount(craftedResolverCount, 1<<31)[:craftedResolverCount+4]); err == nil {
		t.Error("bare header claiming 2^31 resolvers decoded")
	}
}

// TestShardDecodeRejectsTotalsMismatch: the totals must equal the
// per-client sums, so Finalize's fractions describe the entries held.
func TestShardDecodeRejectsTotalsMismatch(t *testing.T) {
	s := craftedShard()
	s.connTotal++
	if _, err := decodeShardPayload(s.encode()); err == nil {
		t.Error("connection total above the entry count decoded")
	}
	s = craftedShard()
	s.dnsTotal--
	if _, err := decodeShardPayload(s.encode()); err == nil {
		t.Error("DNS total below the per-client lookup counts decoded")
	}
}

// FuzzReadShardFile fuzzes the payload decoder behind ReadShardFile
// (the envelope around it — magic, version, length, CRC — is
// checkpoint.Load's and tested there; fuzzing through the CRC would
// reject nearly every mutation). Decoding must never panic, Finalize
// must never panic on a payload the decoder accepts, and decode →
// encode → decode must be a fixpoint. The seed corpus under
// testdata/fuzz holds a real CollectShard output and the crafted
// payloads of the decoder regression tests above.
func FuzzReadShardFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := decodeShardPayload(payload)
		if err != nil {
			return
		}
		s.Finalize().Digest()
		enc := s.encode()
		again, err := decodeShardPayload(enc)
		if err != nil {
			t.Fatalf("re-decoding an accepted shard: %v", err)
		}
		if !bytes.Equal(again.encode(), enc) {
			t.Fatal("decode → encode → decode is not a fixpoint")
		}
	})
}
