package households

import (
	"net/netip"
	"time"

	"dnscontext/internal/trace"
	"dnscontext/internal/zonedb"
)

// connReq is one connection the simulation has decided on: when it
// starts, the house address and the ephemeral port it took, where it
// goes, and how to draw its transfer. The finisher turns it into a
// ConnRecord.
type connReq struct {
	start  time.Duration
	orig   netip.Addr
	port   uint16
	remote netip.Addr
	rport  uint16
	proto  trace.Proto
	xfer   xferSpec
}

// xferKind names the transfer model draw a connection takes.
type xferKind uint8

const (
	xferService xferKind = iota // transferModel.sample(class, factor)
	xferP2P                     // transferModel.p2pTransfer
	xferNTP                     // transferModel.ntpTransfer(dead)
	xferFixed                   // fixed, already drawn by the simulation
)

// xferSpec says how to draw one connection's transfer; the fields a
// kind does not use stay zero.
type xferSpec struct {
	kind   xferKind
	class  zonedb.ServiceClass
	dead   bool
	factor float64
	fixed  transfer
}

func serviceXfer(class zonedb.ServiceClass, factor float64) xferSpec {
	return xferSpec{kind: xferService, class: class, factor: factor}
}

// draw draws the transfer x specifies.
func (m *transferModel) draw(x xferSpec) transfer {
	switch x.kind {
	case xferService:
		return m.sample(x.class, x.factor)
	case xferP2P:
		return m.p2pTransfer()
	case xferNTP:
		return m.ntpTransfer(x.dead)
	}
	return x.fixed
}

const (
	// batchLen is the number of requests handed to the finisher at once.
	batchLen = 4096
	// maxBatches is the number of batches; the simulation waits for a
	// free one when the finisher falls that far behind.
	maxBatches = 4
)

// finisher finishes connections on a goroutine of its own: it draws each
// queued request's transfer from the transfer model, applies the
// observation window and stores the kept records. Nothing the simulation
// does depends on a transfer, and the model draws only from its own RNG
// stream, so drawing them in queue order — the order the simulation
// decided on the connections — reproduces the serial generator's output
// byte for byte, whatever the scheduling. Requests travel in batches
// that recycle through a free list, so the steady state allocates
// nothing.
type finisher struct {
	// tm, lo, hi and conns belong to the finisher goroutine until close
	// returns.
	tm     *transferModel
	lo, hi time.Duration
	conns  segments[trace.ConnRecord]

	cur  []connReq // the batch being filled; nil until the next add
	work chan []connReq
	free chan []connReq
	done chan struct{}
}

// startFinisher starts a finisher drawing from tm and keeping the
// records whose start falls in [lo, hi], shifted so lo is zero. The
// caller must close it.
func startFinisher(tm *transferModel, lo, hi time.Duration) *finisher {
	// Each channel can hold every batch at once, so no send on either
	// ever blocks; only taking a free batch waits.
	f := &finisher{
		tm:   tm,
		lo:   lo,
		hi:   hi,
		work: make(chan []connReq, maxBatches),
		free: make(chan []connReq, maxBatches),
		done: make(chan struct{}),
	}
	for range maxBatches {
		f.free <- make([]connReq, 0, batchLen)
	}
	go f.run(f.work)
	return f
}

func (f *finisher) run(work <-chan []connReq) {
	defer close(f.done)
	for b := range work {
		for i := range b {
			f.finish(&b[i])
		}
		f.free <- b[:0]
	}
}

// finish draws r's transfer and keeps r under the window rule of
// emitDNS. A dropped connection still draws its transfer: every later
// draw depends on it.
func (f *finisher) finish(r *connReq) {
	tr := f.tm.draw(r.xfer)
	if r.start < f.lo || r.start > f.hi {
		return
	}
	f.conns.add(trace.ConnRecord{
		TS:        r.start - f.lo,
		Duration:  tr.duration,
		Proto:     r.proto,
		Orig:      r.orig,
		OrigPort:  r.port,
		Resp:      r.remote,
		RespPort:  r.rport,
		OrigBytes: tr.origBytes,
		RespBytes: tr.respBytes,
	})
}

// add queues r, handing the batch over once it is full.
func (f *finisher) add(r connReq) {
	if f.cur == nil {
		f.cur = <-f.free
	}
	f.cur = append(f.cur, r)
	if len(f.cur) == batchLen {
		f.work <- f.cur
		f.cur = nil
	}
}

// close hands over the last partial batch and waits for the finisher
// goroutine to finish everything queued and exit. It is idempotent.
// Afterwards conns holds every kept record, in queue order.
func (f *finisher) close() {
	if f.work == nil {
		return
	}
	if len(f.cur) > 0 {
		f.work <- f.cur
	}
	f.cur = nil
	close(f.work)
	f.work = nil
	<-f.done
}
