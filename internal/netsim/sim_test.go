package netsim

import (
	"testing"
	"time"

	"dnscontext/internal/stats"
)

func TestSimOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(30*time.Millisecond, func(time.Duration) { order = append(order, 3) })
	s.At(10*time.Millisecond, func(time.Duration) { order = append(order, 1) })
	s.At(20*time.Millisecond, func(time.Duration) { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("final clock %v", s.Now())
	}
	if s.Events() != 3 {
		t.Fatalf("events %d", s.Events())
	}
}

func TestSimFIFOAtSameTime(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func(time.Duration) { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events reordered: %v", order)
		}
	}
}

func TestSimAfterAndClock(t *testing.T) {
	s := New()
	var seen time.Duration
	s.After(5*time.Second, func(now time.Duration) {
		seen = now
		s.After(2*time.Second, func(now time.Duration) { seen = now })
	})
	s.Run()
	if seen != 7*time.Second {
		t.Fatalf("nested After ended at %v", seen)
	}
}

func TestSimNegativeAfterClamped(t *testing.T) {
	s := New()
	ran := false
	s.After(-time.Second, func(time.Duration) { ran = true })
	s.Run()
	if !ran || s.Now() != 0 {
		t.Fatalf("negative delay handling: ran=%v now=%v", ran, s.Now())
	}
}

func TestSimPastSchedulingPanics(t *testing.T) {
	s := New()
	s.At(time.Second, func(time.Duration) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(0, func(time.Duration) {})
}

func TestSimRunUntil(t *testing.T) {
	s := New()
	count := 0
	var tick func(time.Duration)
	tick = func(time.Duration) {
		count++
		s.After(time.Second, tick)
	}
	s.After(time.Second, tick)
	s.RunUntil(10 * time.Second)
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("clock = %v", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (the 11th tick)", s.Pending())
	}
}

func TestSimRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(time.Minute)
	if s.Now() != time.Minute {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSimStepEmpty(t *testing.T) {
	if New().Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// TestSimPopsInAtSeqOrder schedules events at random times — many
// sharing a timestamp, some cancelled, some scheduling more — and
// requires execution in (at, seq) order: time order, FIFO within a
// time.
func TestSimPopsInAtSeqOrder(t *testing.T) {
	r := stats.NewRNG(9)
	s := New()
	type fired struct {
		at  time.Duration
		seq int
	}
	var got []fired
	seq := 0
	var schedule func(at time.Duration)
	schedule = func(at time.Duration) {
		seq++
		id := seq
		h := s.Schedule(at, func(now time.Duration) {
			got = append(got, fired{now, id})
			if r.Bool(0.3) {
				schedule(now + time.Duration(r.Intn(50))*time.Millisecond)
			}
		})
		if r.Bool(0.1) {
			h.Cancel()
		}
	}
	for i := 0; i < 5000; i++ {
		schedule(time.Duration(r.Intn(200)) * time.Millisecond)
	}
	s.Run()
	if len(got) < 4000 {
		t.Fatalf("only %d events ran", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at || (got[i].at == got[i-1].at && got[i].seq < got[i-1].seq) {
			t.Fatalf("event %d (at %v, seq %d) ran after (at %v, seq %d)",
				i, got[i].at, got[i].seq, got[i-1].at, got[i-1].seq)
		}
	}
}

// TestSimEventAllocs gates the event loop at zero allocations per event
// on a warmed engine: items live by value in the heap, so At and Step
// only move them.
func TestSimEventAllocs(t *testing.T) {
	s := New()
	fn := func(time.Duration) {}
	for i := 0; i < 1000; i++ {
		s.At(time.Duration(i)*time.Second, fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.At(s.Now()+500*time.Millisecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("At+Step allocates %.2f times per event; want 0", allocs)
	}
}

func TestLinkDelayBounds(t *testing.T) {
	r := stats.NewRNG(1)
	l := Link{Base: 10 * time.Millisecond, Jitter: time.Millisecond}
	for i := 0; i < 10000; i++ {
		d := l.Delay(r)
		if d < 10*time.Millisecond {
			t.Fatalf("delay %v below base", d)
		}
	}
}

func TestLinkSlowEpisodes(t *testing.T) {
	r := stats.NewRNG(2)
	l := Link{Base: 10 * time.Millisecond, SlowProb: 0.1, SlowFactor: 10}
	slow := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if l.Delay(r) >= 100*time.Millisecond {
			slow++
		}
	}
	frac := float64(slow) / draws
	if frac < 0.08 || frac > 0.12 {
		t.Fatalf("slow-episode fraction %.3f, want ~0.1", frac)
	}
}

func TestLinkSlowFactorFloor(t *testing.T) {
	r := stats.NewRNG(3)
	l := Link{Base: 5 * time.Millisecond, SlowProb: 1, SlowFactor: 0.1}
	// SlowFactor < 1 must not shrink the delay below base.
	for i := 0; i < 100; i++ {
		if d := l.Delay(r); d < 5*time.Millisecond {
			t.Fatalf("delay %v shrank below base", d)
		}
	}
}

func TestLinkRTT(t *testing.T) {
	r := stats.NewRNG(4)
	l := Link{Base: 10 * time.Millisecond}
	if rtt := l.RTT(r); rtt != 20*time.Millisecond {
		t.Fatalf("jitterless RTT %v, want 20ms", rtt)
	}
}
