package chaos

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"dnscontext/internal/netsim"
)

// fateGolden pins the FNV-64a of 10k lane.decide fates per seed, with
// every fault on and blackhole windows at fixed elapsed offsets. A
// refactor of the fate draw (which faults draw, in what order, and
// through which helper) must leave these values unchanged: the i-th
// delivery on a lane gets the same fate for the same seed.
var fateGolden = map[uint64]uint64{
	7:             0x20691d285944e886,
	1<<40 + 0x9e3: 0x69a9c5ed79b332c3,
}

func TestFateSequenceGolden(t *testing.T) {
	p := Profile{
		Loss:      0.05,
		Delay:     time.Millisecond,
		Jitter:    2 * time.Millisecond,
		Reorder:   0.05,
		Duplicate: 0.03,
		Corrupt:   0.04,
		TCPReset:  0.02,
		Blackholes: []netsim.Window{
			{Start: time.Second, End: 1200 * time.Millisecond},
			{Start: 3 * time.Second, End: 3500 * time.Millisecond},
			{Start: 3400 * time.Millisecond, End: 3600 * time.Millisecond},
		},
	}
	for seed, want := range fateGolden {
		l := newLane(seed, "up", newCounters(nil))
		h := fnv.New64a()
		var buf [8]byte
		var seen [6]int
		flag := func(b bool) byte {
			if b {
				return 1
			}
			return 0
		}
		for i := 0; i < 10000; i++ {
			// Half a millisecond per delivery: 10k fates span 5 s, crossing
			// every window.
			f := l.decide(p, time.Duration(i)*500*time.Microsecond)
			flags := [6]byte{flag(f.drop), flag(f.blackhole), flag(f.dup), flag(f.corrupt), flag(f.reorder), flag(f.reset)}
			for k, b := range flags {
				seen[k] += int(b)
			}
			h.Write(flags[:])
			binary.LittleEndian.PutUint64(buf[:], uint64(f.corruptAt))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], uint64(f.delay))
			h.Write(buf[:])
		}
		for k, n := range seen {
			if n == 0 {
				t.Fatalf("seed %d: fate kind %d never drawn; the golden would not cover it", seed, k)
			}
		}
		if got := h.Sum64(); got != want {
			t.Errorf("seed %d: fate hash %#016x, want %#016x", seed, got, want)
		}
	}
}
