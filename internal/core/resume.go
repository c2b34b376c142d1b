package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"net/netip"
	"sync"

	"dnscontext/internal/checkpoint"
	"dnscontext/internal/obs"
)

// Checkpoint/resume for the analysis pipeline. The classify phase's
// shards are independent, so the unit of progress is one completed
// client: every Interval completions the analyzer snapshots the clients
// classified so far to disk via internal/checkpoint. A snapshot is the
// dataset fingerprint followed by a partial AnalysisShard in the shard
// file encoding — the same pairing facts, options block, and decoder
// that WriteShardFile and Merge use. A resumed run decodes the snapshot
// into the same per-client slots and classifies only the remaining
// shards; because shards share no state and each carries its own RNG
// stream, the resumed result is bit-identical to an uninterrupted run
// at any worker count.
//
// A snapshot is only valid against the dataset and options that
// produced it: the fingerprint pins the dataset and the encoding's
// options block pins the options, so loading a snapshot against
// anything else is an error, never a silent wrong answer.

// ckVersion is the on-disk format version of analyzer checkpoints.
// Version 1 stored bespoke per-shard blobs; version 2 stores a partial
// shard.
const ckVersion = 2

// defaultCkInterval is the number of completed shards between
// snapshots.
const defaultCkInterval = 64

// ErrCheckpointMismatch is matched (via errors.Is) when a checkpoint
// was written for a different dataset or different analysis options.
var ErrCheckpointMismatch = errors.New("checkpoint does not match this run")

// Checkpoint configures snapshotting for AnalyzeContext (see
// Options.Checkpoint).
type Checkpoint struct {
	// Path is the snapshot file. Empty disables checkpointing.
	Path string
	// Interval is the number of completed shards between snapshots.
	// Zero means the default (64).
	Interval int
	// Resume loads Path before classifying, skipping shards the
	// snapshot already covers. A missing file is not an error (the run
	// simply starts fresh); a corrupt file or one from a different
	// dataset/options is.
	Resume bool
	// OnSnapshot, when non-nil, is called after each successful
	// snapshot with the number of shards persisted. Tests use it to
	// kill runs at snapshot boundaries.
	OnSnapshot func(doneShards int)
}

// ckRun is the per-run checkpoint state.
type ckRun struct {
	a   *Analysis
	cfg *Checkpoint

	mu        sync.Mutex
	done      []int        // completed shard IDs, restored ones included
	restored  map[int]bool // shards loaded from the snapshot
	sinceSave int

	writesC   *obs.Counter
	restoredC *obs.Counter
}

func newCkRun(a *Analysis, cfg *Checkpoint) *ckRun {
	ck := &ckRun{a: a, cfg: cfg, restored: make(map[int]bool)}
	if reg := a.Opts.Metrics; reg != nil {
		ck.writesC = reg.Counter("dnsctx_checkpoint_writes_total",
			"Analyzer snapshots persisted to disk.")
		ck.restoredC = reg.Counter("dnsctx_checkpoint_restored_shards_total",
			"Analyzer shards restored from a checkpoint instead of recomputed.")
	}
	return ck
}

func (ck *ckRun) interval() int {
	if ck.cfg.Interval > 0 {
		return ck.cfg.Interval
	}
	return defaultCkInterval
}

// isRestored reports whether shard s was loaded from the snapshot and
// must not be reclassified.
func (ck *ckRun) isRestored(s int) bool {
	return ck.restored[s] // only written before the parallel phase
}

// complete records shard s as classified and persists a snapshot every
// Interval completions. Called concurrently from the worker pool, after
// the caller filled a.clients[s].
func (ck *ckRun) complete(s int) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.done = append(ck.done, s)
	ck.sinceSave++
	if ck.sinceSave < ck.interval() {
		return nil
	}
	if err := ck.save(); err != nil {
		return err
	}
	ck.sinceSave = 0
	ck.writesC.Inc()
	if ck.cfg.OnSnapshot != nil {
		ck.cfg.OnSnapshot(len(ck.done))
	}
	return nil
}

// save persists every completed client as a partial shard: its totals
// cover those clients, its resolver table is the whole run's. Caller
// holds ck.mu.
func (ck *ckRun) save() error {
	a := ck.a
	part := &AnalysisShard{opts: a.Opts, resolvers: a.resolvers, clients: make([]clientResult, len(ck.done))}
	for i, s := range ck.done {
		c := a.clients[s]
		part.clients[i] = c
		part.dnsTotal += int64(c.nDNS)
		part.connTotal += int64(len(c.entries))
	}
	payload := binary.LittleEndian.AppendUint64(nil, a.fingerprint())
	return checkpoint.Save(ck.cfg.Path, ckVersion, append(payload, part.encode()...))
}

// restore loads the snapshot at Path (if any) into the per-client slots
// of the shards it covers. Restored entries then take the same Paired
// fill as computed ones.
func (ck *ckRun) restore() error {
	payload, err := checkpoint.Load(ck.cfg.Path, ckVersion)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	a := ck.a
	if len(payload) < 8 {
		return fmt.Errorf("checkpoint: snapshot too short for its fingerprint: %w", checkpoint.ErrCorrupt)
	}
	if fp := binary.LittleEndian.Uint64(payload); fp != a.fingerprint() {
		return fmt.Errorf("%w: dataset fingerprint %016x, snapshot has %016x",
			ErrCheckpointMismatch, a.fingerprint(), fp)
	}
	part, err := decodeShardPayload(payload[8:])
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if !sameResultOptions(&part.opts, &a.Opts) {
		return fmt.Errorf("%w: analysis options changed since the snapshot", ErrCheckpointMismatch)
	}
	// The encoding numbers resolvers in address order; map them back to
	// this run's symbols.
	rsym := make(map[netip.Addr]int32, len(a.resolvers))
	for i := range a.resolvers {
		rsym[a.resolvers[i].addr] = int32(i)
	}
	remap := make([]int32, len(part.resolvers))
	for i := range part.resolvers {
		p, ok := rsym[part.resolvers[i].addr]
		if !ok {
			return fmt.Errorf("%w: snapshot resolver %s not in the dataset", ErrCheckpointMismatch, part.resolvers[i].addr)
		}
		remap[i] = p
	}
	slot := make(map[netip.Addr]int, len(a.shards))
	for s := range a.shards {
		slot[a.shards[s].client] = s
	}
	for _, c := range part.clients {
		s, ok := slot[c.client]
		if !ok || int(c.nDNS) != len(a.shards[s].dns) || len(c.entries) != len(a.shards[s].conns) {
			return fmt.Errorf("%w: snapshot client %s does not match its shard", ErrCheckpointMismatch, c.client)
		}
		for j := range c.entries {
			if e := &c.entries[j]; e.res >= 0 {
				e.res = remap[e.res]
			}
		}
		a.clients[s] = c
		ck.restored[s] = true
		ck.done = append(ck.done, s)
	}
	ck.restoredC.Add(uint64(len(part.clients)))
	return nil
}

// fingerprint hashes the (time-sorted) dataset so a snapshot can refuse
// to resume against different input.
func (a *Analysis) fingerprint() uint64 {
	if a.fp != 0 {
		return a.fp
	}
	h := fnv.New64a()
	put := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) }
	put(uint64(len(a.DS.DNS)))
	for i := range a.DS.DNS {
		d := &a.DS.DNS[i]
		put(int64(d.QueryTS))
		put(int64(d.TS))
		h.Write([]byte(d.Client.String()))
		h.Write([]byte(d.Resolver.String()))
		put(d.ID)
		h.Write([]byte(d.Query))
		put(d.QType)
		put(d.RCode)
		put(uint32(len(d.Answers)))
		for _, an := range d.Answers {
			h.Write([]byte(an.Addr.String()))
			put(int64(an.TTL))
		}
		put(d.Retries)
		put(d.TC)
	}
	put(uint64(len(a.DS.Conns)))
	for i := range a.DS.Conns {
		c := &a.DS.Conns[i]
		put(int64(c.TS))
		put(int64(c.Duration))
		put(uint8(c.Proto))
		h.Write([]byte(c.Orig.String()))
		put(c.OrigPort)
		h.Write([]byte(c.Resp.String()))
		put(c.RespPort)
		put(c.OrigBytes)
		put(c.RespBytes)
	}
	a.fp = h.Sum64()
	return a.fp
}
