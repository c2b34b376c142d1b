// Package netsim implements a small discrete-event simulation engine with a
// virtual clock, an event queue, and latency/jitter link models. The
// dnscontext traffic generator runs entirely on this engine, so simulated
// time is decoupled from wall-clock time and runs are deterministic.
package netsim

import (
	"fmt"
	"time"

	"dnscontext/internal/obs"
)

// Event is a callback scheduled to run at a virtual time: the event type
// of Sim, the closure flavour of the engine.
type Event func(now time.Duration)

// Sim is the engine whose events are closures, each run when its time
// comes up.
type Sim = Engine[Event]

// New returns an empty closure simulator with the clock at zero.
func New() *Sim {
	return NewEngine(func(now time.Duration, fn Event) { fn(now) })
}

type item[E any] struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among equal timestamps
	ev  E
}

// eventQueue is a binary min-heap of events ordered by (at, seq), holding
// them by value: scheduling an event allocates nothing once the heap has
// grown. The order is total — seq is unique — so the pop sequence is
// fixed by the scheduled events alone, whatever the heap's internal
// layout.
type eventQueue[E any] []item[E]

func (q eventQueue[E]) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue[E]) push(it item[E]) {
	*q = append(*q, it)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *eventQueue[E]) pop() item[E] {
	h := *q
	n := len(h) - 1
	it := h[0]
	h[0] = h[n]
	h[n] = item[E]{} // release the event's references
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h
	return it
}

// Engine is a discrete-event simulator over event values of type E, each
// handed to the engine's run function when its time comes up. A caller
// with a fixed set of event kinds uses a small struct for E and one
// dispatch function, so the event loop allocates nothing per event. The
// zero value is not usable; call NewEngine.
type Engine[E any] struct {
	now    time.Duration
	queue  eventQueue[E]
	seq    uint64
	events uint64
	run    func(now time.Duration, ev E)

	// handles maps the seq of each pending Schedule'd event to whether it
	// was cancelled. It stays nil until the first Schedule, so At-only
	// engines pay one nil check per event for cancellation support.
	handles map[uint64]bool

	// Optional observability hooks; nil instruments are no-ops, so an
	// unobserved simulator pays one nil check per event. Instruments
	// record event-loop activity but never influence scheduling, keeping
	// seeded runs bit-identical with observation on or off.
	obsEvents   *obs.Counter
	obsDepth    *obs.Gauge
	obsDepthMax *obs.Gauge
}

// NewEngine returns an empty engine with the clock at zero that executes
// each event by calling run with the event's time and value.
func NewEngine[E any](run func(now time.Duration, ev E)) *Engine[E] {
	return &Engine[E]{run: run}
}

// Observe mirrors event-loop activity into the given instruments:
// events counts executed events, depth tracks the pending-queue length
// (sampled after each executed event), and depthMax its high-water mark.
// Any of them may be nil.
func (s *Engine[E]) Observe(events *obs.Counter, depth, depthMax *obs.Gauge) {
	s.obsEvents = events
	s.obsDepth = depth
	s.obsDepthMax = depthMax
}

// Now returns the current virtual time.
func (s *Engine[E]) Now() time.Duration { return s.now }

// Events returns the number of events executed so far.
func (s *Engine[E]) Events() uint64 { return s.events }

// Pending returns the number of scheduled-but-unexecuted events.
// Cancelled events still occupy their slot until their time comes up, so
// the count is an upper bound while cancellations are in flight.
func (s *Engine[E]) Pending() int { return len(s.queue) }

// At schedules ev to run at absolute virtual time at. Scheduling in the
// past panics: it indicates a logic error that would otherwise silently
// reorder causality.
func (s *Engine[E]) At(at time.Duration, ev E) {
	if at < s.now {
		panic(fmt.Sprintf("netsim: scheduling event at %v, before now %v", at, s.now))
	}
	s.seq++
	s.queue.push(item[E]{at: at, seq: s.seq, ev: ev})
}

// After schedules ev to run delay after the current virtual time.
// Negative delays are clamped to zero.
func (s *Engine[E]) After(delay time.Duration, ev E) {
	if delay < 0 {
		delay = 0
	}
	s.At(s.now+delay, ev)
}

// Handle identifies a scheduled event so it can be cancelled — the
// primitive timeout modelling needs: schedule a deadline, cancel it when
// the awaited response arrives first.
type Handle struct {
	handles map[uint64]bool
	seq     uint64
}

// Cancel withdraws the event. It reports whether the event was still
// pending; cancelling an executed or already-cancelled event is a no-op.
// The queue slot is reclaimed lazily when the event's time comes up.
func (h *Handle) Cancel() bool {
	if h == nil {
		return false
	}
	cancelled, pending := h.handles[h.seq]
	if !pending || cancelled {
		return false
	}
	h.handles[h.seq] = true
	return true
}

// Schedule is At returning a cancellable Handle. Cancelled events do not
// execute, do not advance the clock, and do not count toward Events().
func (s *Engine[E]) Schedule(at time.Duration, ev E) *Handle {
	s.At(at, ev)
	if s.handles == nil {
		s.handles = make(map[uint64]bool)
	}
	s.handles[s.seq] = false
	return &Handle{handles: s.handles, seq: s.seq}
}

// settle forgets the handle of the just-popped event with sequence seq,
// reporting whether that event was cancelled.
func (s *Engine[E]) settle(seq uint64) (cancelled bool) {
	if s.handles == nil {
		return false
	}
	cancelled = s.handles[seq]
	delete(s.handles, seq)
	return cancelled
}

// Step executes the single earliest pending event, discarding cancelled
// ones along the way. It reports whether an event was executed.
func (s *Engine[E]) Step() bool {
	for len(s.queue) > 0 {
		it := s.queue.pop()
		if s.settle(it.seq) {
			continue
		}
		s.now = it.at
		s.events++
		s.run(s.now, it.ev)
		s.obsEvents.Inc()
		depth := int64(len(s.queue))
		s.obsDepth.Set(depth)
		s.obsDepthMax.SetMax(depth)
		return true
	}
	return false
}

// RunUntil executes events in order until the queue is empty or the next
// event is later than end. The clock finishes at end (or at the last
// executed event if the queue drains first and that is later).
func (s *Engine[E]) RunUntil(end time.Duration) {
	for len(s.queue) > 0 {
		if s.handles != nil && s.handles[s.queue[0].seq] {
			s.settle(s.queue.pop().seq)
			continue
		}
		if s.queue[0].at > end {
			break
		}
		s.Step()
	}
	if s.now < end {
		s.now = end
	}
}

// Run executes every pending event, including events scheduled by events.
// Use RunUntil for workloads that self-perpetuate.
func (s *Engine[E]) Run() {
	for s.Step() {
	}
}
