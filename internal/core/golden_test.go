package core

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"dnscontext/internal/households"
	"dnscontext/internal/resolver"
)

// Golden output hashes over determinismTrace with SCRMinSamples=50. The
// report and paired hashes were captured from the pre-interning
// implementation (commit 7dfd5b9) and pin the ISSUE 5 acceptance bar —
// the allocation-lean pipeline (interned names, flat layout,
// symbol-indexed hot paths) must be bit-identical to the seed
// implementation: same report bytes, same Paired encoding, at every
// worker count, under both pairing policies. The shard hash pins the
// canonical shard-file encoding of a.Shard() — the per-connection
// pairing facts that shard files and analyzer checkpoints persist —
// captured from the two-engine implementation before the classify
// paths were folded onto one kernel. If an optimization changes any of
// these hashes, it changed the science, not just the speed.
var goldenHashes = map[PairingPolicy]struct{ report, paired, shard uint64 }{
	PairMostRecent: {report: 0xd547402905b13212, paired: 0xdb8e66a726e9471d, shard: 0x7ab339fe913c30c5},
	PairRandom:     {report: 0x2be6a45431a019c1, paired: 0xe73357fb6dcd5241, shard: 0xdd7c0dada9fbb324},
}

// hashAnalysis reduces an Analysis to three FNV-64a fingerprints: the
// full text report, the Paired slice (field by field, fixed-width), and
// the canonical shard encoding.
func hashAnalysis(t *testing.T, a *Analysis, profiles []resolver.PlatformProfile) (report, paired, shard uint64) {
	t.Helper()
	var rep bytes.Buffer
	if err := a.Report(&rep, profiles); err != nil {
		t.Fatal(err)
	}
	hr := fnv.New64a()
	hr.Write(rep.Bytes())

	hp := fnv.New64a()
	for i := range a.Paired {
		pc := &a.Paired[i]
		binary.Write(hp, binary.LittleEndian, int64(pc.Conn))
		binary.Write(hp, binary.LittleEndian, int64(pc.DNS))
		binary.Write(hp, binary.LittleEndian, int64(pc.Gap))
		binary.Write(hp, binary.LittleEndian, uint8(pc.Class))
		binary.Write(hp, binary.LittleEndian, pc.FirstUse)
		binary.Write(hp, binary.LittleEndian, pc.UsedExpired)
		binary.Write(hp, binary.LittleEndian, int64(pc.Candidates))
	}

	hs := fnv.New64a()
	hs.Write(a.Shard().encode())
	return hr.Sum64(), hp.Sum64(), hs.Sum64()
}

// TestGoldenOutputsBitIdentical is the bit-identical output invariant:
// reports, pairings, and shard bytes must match the pinned hashes at Workers 1, 2, and 8, for both pairing
// policies.
func TestGoldenOutputsBitIdentical(t *testing.T) {
	cfg := households.SmallConfig(7)
	cfg.Houses = 8
	cfg.Duration = time.Hour
	cfg.Warmup = 30 * time.Minute
	ds, eco, err := households.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pairing, want := range goldenHashes {
		for _, workers := range []int{1, 2, 8} {
			opts := DefaultOptions()
			opts.Pairing = pairing
			opts.SCRMinSamples = 50
			opts.Workers = workers
			a := analyzeCopy(t, ds, opts)
			report, paired, shard := hashAnalysis(t, a, eco.Profiles)
			if report != want.report {
				t.Errorf("pairing=%v workers=%d: report hash %#016x, want %#016x",
					pairing, workers, report, want.report)
			}
			if paired != want.paired {
				t.Errorf("pairing=%v workers=%d: Paired hash %#016x, want %#016x",
					pairing, workers, paired, want.paired)
			}
			if shard != want.shard {
				t.Errorf("pairing=%v workers=%d: shard hash %#016x, want %#016x",
					pairing, workers, shard, want.shard)
			}
		}
	}
}
