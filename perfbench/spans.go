package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dnscontext/internal/obs"
)

// Span is one recorded interval: a public call the benchmark made into
// a layer, a pass of the benchmark itself, or an analyzer phase
// imported from the analyzer's own timeline. Times are offsets from the
// recorder's epoch.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// layer is the span name's first dot-separated element, which names
// the module the call went into ("core.Analyze" → "core").
func (s Span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// Recorder keeps spans in memory; they are written out once, when the
// run ends. A nil *Recorder records nothing, which is how untraced
// passes run.
type Recorder struct {
	epoch time.Time
	spans []Span
}

func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// add records a closed span and returns its ID.
func (r *Recorder) add(name string, parent int, start, end time.Duration) int {
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// Call is an open span around one public call, together with the
// process's allocation and GC CPU counters when the call began.
type Call struct {
	r     *Recorder
	id    int
	start time.Duration
	u0    usage
}

// Begin opens a span named name under parent (-1 for a root). On a nil
// recorder it returns an inert Call whose End reports zeros.
func (r *Recorder) Begin(name string, parent int) Call {
	if r == nil {
		return Call{id: -1}
	}
	c := Call{r: r, u0: readUsage(), start: time.Since(r.epoch)}
	c.id = r.add(name, parent, c.start, c.start)
	return c
}

// ID is the span's identifier, the parent for spans nested in it.
func (c Call) ID() int { return c.id }

// End closes the span and returns the call's wall seconds and the heap
// bytes it allocated and GC CPU seconds the process spent meanwhile.
func (c Call) End() (seconds, allocBytes, gcCPU float64) {
	if c.r == nil {
		return 0, 0, 0
	}
	end := time.Since(c.r.epoch)
	u1 := readUsage()
	c.r.spans[c.id].End = end
	return (end - c.start).Seconds(), u1.allocBytes - c.u0.allocBytes, u1.gcCPU - c.u0.gcCPU
}

// Nest imports an analyzer timeline as child spans of c. The timeline
// gives each phase's offset from its first phase, which the analyzer
// opens as the call begins, so offsets are anchored at the call's
// start. Phase spans are named core.phase.<name>.
func (c Call) Nest(tl obs.Timeline) {
	if c.r == nil {
		return
	}
	for _, p := range tl.Phases {
		start := c.start + time.Duration(p.Offset*float64(time.Second))
		end := start + time.Duration(p.Seconds*float64(time.Second))
		c.r.add("core.phase."+p.Name, c.id, start, end)
	}
}

// SelfTimes returns each layer's self time in seconds. A span's self
// time is its duration minus the part of its interval that its
// children cover, where overlapping (concurrent) children count once;
// a layer's self time is the sum over its spans. Concurrent spans of
// one layer each count in full, so a layer busy on two goroutines at
// once can have more self time than wall time.
func SelfTimes(spans []Span) map[string]float64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		covered := unionWithin(children[s.ID], s.Start, s.End)
		self[s.layer()] += (s.End - s.Start - covered).Seconds()
	}
	return self
}

// unionWithin is the length of the union of the spans' intervals,
// clipped to [lo, hi].
func unionWithin(spans []Span, lo, hi time.Duration) time.Duration {
	type ival struct{ a, b time.Duration }
	ivs := make([]ival, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, ival{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for i, iv := range ivs {
		switch {
		case i == 0 || iv.a >= end:
			total += iv.b - iv.a
			end = iv.b
		case iv.b > end:
			total += iv.b - end
			end = iv.b
		}
	}
	return total
}

// writeSpans writes the recorded spans and the hardware stamp as JSON.
func writeSpans(path string, hw hardware, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Hardware hardware `json:"hardware"`
		Spans    []Span   `json:"spans"`
	}{hw, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
