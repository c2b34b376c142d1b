package monitor

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"dnscontext/internal/dnswire"
	"dnscontext/internal/obs"
	"dnscontext/internal/pcap"
	"dnscontext/internal/trace"
)

// Options configures the passive monitor.
type Options struct {
	// UDPTimeout delineates UDP "connections": a flow ends this long
	// after its last packet (the paper's Bro configuration uses 60 s).
	UDPTimeout time.Duration
	// LocalNet decides which endpoint is "inside" (the originator for
	// UDP flows whose first packet we may have missed). Defaults to
	// 10.0.0.0/8.
	LocalNet netip.Prefix
	// DecodeBudget bounds undecodable frames. Nil keeps the historical
	// behaviour: decode errors are counted but never fatal. With a
	// budget, once trace.ErrorBudget.Exceeded(decode errors, frames fed)
	// reports true the monitor latches an error (see Err) and ignores
	// further input — the degradation analogue of a scanner's quarantine
	// budget tripping.
	DecodeBudget *trace.ErrorBudget
}

// DefaultOptions mirrors the paper's Bro setup.
func DefaultOptions() Options {
	return Options{
		UDPTimeout: 60 * time.Second,
		LocalNet:   netip.MustParsePrefix("10.0.0.0/8"),
	}
}

// Monitor consumes packets in capture order and reconstructs the two
// datasets. It is the moral equivalent of running Bro's dns and conn
// policy scripts at the ISP aggregation point.
type Monitor struct {
	opts Options
	ds   trace.Dataset

	pendingDNS map[dnsKey]pendingQuery
	flows      map[pcap.Flow]*flowState

	// Decode/parse failures are counted, not fatal: a passive monitor
	// must survive garbage.
	DecodeErrors uint64
	DNSParseErrs uint64

	// frames counts frames handed to FeedFrame (the denominator for the
	// decode budget's rate check); err latches the budget trip.
	frames int
	err    error

	// Optional observability mirrors of the error tallies plus feed
	// volume; nil instruments are no-ops. See Observe.
	obsPackets    *obs.Counter
	obsDecodeErrs *obs.Counter
	obsParseErrs  *obs.Counter
	obsDNSRecords *obs.Counter
}

// Observe registers the monitor's metric families with reg and mirrors
// future activity into them: packets fed, frame decode errors, DNS parse
// errors, and DNS records reconstructed. A nil registry is a no-op.
func (m *Monitor) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.obsPackets = reg.Counter("dnsctx_monitor_packets_total",
		"Packets fed to the passive monitor.")
	m.obsDecodeErrs = reg.Counter("dnsctx_monitor_decode_errors_total",
		"Frames the packet decoder rejected.")
	m.obsParseErrs = reg.Counter("dnsctx_monitor_dns_parse_errors_total",
		"Port-53 payloads rejected by the DNS codec (or unsolicited responses).")
	m.obsDNSRecords = reg.Counter("dnsctx_monitor_dns_records_total",
		"DNS transaction records reconstructed from query/response pairs.")
}

type dnsKey struct {
	client   netip.Addr
	resolver netip.Addr
	port     uint16
	id       uint16
}

type pendingQuery struct {
	ts    time.Duration
	query string
	qtype uint16
}

type flowState struct {
	conn      trace.ConnRecord
	lastSeen  time.Duration
	finOrig   bool
	finResp   bool
	endTS     time.Duration
	sawSYN    bool
	tcpClosed bool
}

// New returns an empty monitor.
func New(opts Options) *Monitor {
	if opts.UDPTimeout <= 0 {
		opts.UDPTimeout = 60 * time.Second
	}
	if !opts.LocalNet.IsValid() {
		opts.LocalNet = netip.MustParsePrefix("10.0.0.0/8")
	}
	return &Monitor{
		opts:       opts,
		pendingDNS: make(map[dnsKey]pendingQuery),
		flows:      make(map[pcap.Flow]*flowState),
	}
}

// FeedFrame decodes one frame and feeds it. ts is the capture offset from
// the window start. Once the decode budget has tripped (see Options.
// DecodeBudget and Err), frames are ignored.
func (m *Monitor) FeedFrame(ts time.Duration, frame []byte) {
	if m.err != nil {
		return
	}
	m.frames++
	p, err := pcap.DecodePacket(time.Time{}, frame)
	if err != nil {
		m.DecodeErrors++
		m.obsDecodeErrs.Inc()
		if b := m.opts.DecodeBudget; b != nil && b.Exceeded(int(m.DecodeErrors), m.frames) {
			m.err = fmt.Errorf("monitor: %w: %d of %d frames undecodable (last: %v)",
				trace.ErrBudgetExceeded, m.DecodeErrors, m.frames, err)
		}
		return
	}
	m.Feed(ts, p)
}

// Err reports the latched decode-budget error, or nil while the monitor
// is still ingesting. Once non-nil, FeedFrame ignores further input.
func (m *Monitor) Err() error { return m.err }

// Feed processes one decoded packet.
func (m *Monitor) Feed(ts time.Duration, p *pcap.Packet) {
	m.obsPackets.Inc()
	m.expireUDP(ts)
	switch {
	case p.UDP != nil && (p.UDP.SrcPort == 53 || p.UDP.DstPort == 53):
		m.feedDNS(ts, p)
	case p.UDP != nil:
		m.feedUDP(ts, p)
	case p.TCP != nil:
		m.feedTCP(ts, p)
	}
}

func (m *Monitor) feedDNS(ts time.Duration, p *pcap.Packet) {
	msg, err := dnswire.Decode(p.UDP.Payload)
	if err != nil {
		m.DNSParseErrs++
		m.obsParseErrs.Inc()
		return
	}
	if len(msg.Questions) == 0 {
		m.DNSParseErrs++
		m.obsParseErrs.Inc()
		return
	}
	q := msg.Questions[0]
	if strings.ContainsAny(q.Name, "\t\n\r") {
		// Label bytes decode verbatim, but a name holding a field or
		// line separator cannot be logged as one TSV record (WriteDNS
		// refuses it): it would split into lines that forge records.
		m.DNSParseErrs++
		m.obsParseErrs.Inc()
		return
	}
	if !msg.Header.Response {
		k := dnsKey{client: p.SrcAddr(), resolver: p.DstAddr(), port: p.UDP.SrcPort, id: msg.Header.ID}
		m.pendingDNS[k] = pendingQuery{ts: ts, query: q.Name, qtype: uint16(q.Type)}
		return
	}
	k := dnsKey{client: p.DstAddr(), resolver: p.SrcAddr(), port: p.UDP.DstPort, id: msg.Header.ID}
	pq, ok := m.pendingDNS[k]
	if !ok {
		// Unsolicited response; Bro logs these specially, we drop them.
		m.DNSParseErrs++
		m.obsParseErrs.Inc()
		return
	}
	delete(m.pendingDNS, k)
	rec := trace.DNSRecord{
		QueryTS:  pq.ts,
		TS:       ts,
		Client:   k.client,
		Resolver: k.resolver,
		ID:       msg.Header.ID,
		Query:    pq.query,
		QType:    pq.qtype,
		RCode:    uint8(msg.Header.RCode),
	}
	for _, rr := range msg.Answers {
		if rr.Type == dnswire.TypeA || rr.Type == dnswire.TypeAAAA {
			rec.Answers = append(rec.Answers, trace.Answer{
				Addr: rr.Addr,
				TTL:  time.Duration(rr.TTL) * time.Second,
			})
		}
	}
	m.ds.DNS = append(m.ds.DNS, rec)
	m.obsDNSRecords.Inc()
}

func (m *Monitor) feedTCP(ts time.Duration, p *pcap.Packet) {
	f := p.Flow()
	key := f.Canonical()
	st, ok := m.flows[key]
	if !ok {
		st = &flowState{}
		st.conn.Proto = trace.TCP
		// The SYN sender is the originator; without a SYN, fall back to
		// the local-network side.
		if p.TCP.HasFlags(pcap.FlagSYN) && !p.TCP.HasFlags(pcap.FlagACK) {
			st.sawSYN = true
			st.conn.Orig, st.conn.OrigPort = f.Src, f.SrcPort
			st.conn.Resp, st.conn.RespPort = f.Dst, f.DstPort
		} else {
			st.conn.Orig, st.conn.OrigPort = f.Src, f.SrcPort
			st.conn.Resp, st.conn.RespPort = f.Dst, f.DstPort
			if !m.isLocal(f.Src) && m.isLocal(f.Dst) {
				st.conn.Orig, st.conn.OrigPort = f.Dst, f.DstPort
				st.conn.Resp, st.conn.RespPort = f.Src, f.SrcPort
			}
		}
		st.conn.TS = ts
		m.flows[key] = st
	}
	st.lastSeen = ts
	fromOrig := p.SrcAddr() == st.conn.Orig && p.TCP.SrcPort == st.conn.OrigPort
	if n := int64(len(p.TCP.Payload)); n > 0 {
		if fromOrig {
			st.conn.OrigBytes += n
		} else {
			st.conn.RespBytes += n
		}
	}
	if p.TCP.Flags&(pcap.FlagFIN|pcap.FlagRST) != 0 {
		if p.TCP.Flags&pcap.FlagRST != 0 {
			st.finOrig, st.finResp = true, true
		} else if fromOrig {
			st.finOrig = true
		} else {
			st.finResp = true
		}
		if ts > st.endTS {
			st.endTS = ts
		}
		if st.finOrig && st.finResp && !st.tcpClosed {
			st.tcpClosed = true
			st.conn.Duration = st.endTS - st.conn.TS
			m.ds.Conns = append(m.ds.Conns, st.conn)
			delete(m.flows, key)
		}
	}
}

func (m *Monitor) feedUDP(ts time.Duration, p *pcap.Packet) {
	f := p.Flow()
	key := f.Canonical()
	st, ok := m.flows[key]
	if !ok {
		st = &flowState{}
		st.conn.Proto = trace.UDP
		st.conn.Orig, st.conn.OrigPort = f.Src, f.SrcPort
		st.conn.Resp, st.conn.RespPort = f.Dst, f.DstPort
		if !m.isLocal(f.Src) && m.isLocal(f.Dst) {
			st.conn.Orig, st.conn.OrigPort = f.Dst, f.DstPort
			st.conn.Resp, st.conn.RespPort = f.Src, f.SrcPort
		}
		st.conn.TS = ts
		m.flows[key] = st
	}
	st.lastSeen = ts
	fromOrig := p.SrcAddr() == st.conn.Orig && p.UDP.SrcPort == st.conn.OrigPort
	if n := int64(len(p.UDP.Payload)); n > 0 {
		if fromOrig {
			st.conn.OrigBytes += n
		} else {
			st.conn.RespBytes += n
		}
	}
}

// expireUDP closes UDP flows idle past the timeout, relative to now.
func (m *Monitor) expireUDP(now time.Duration) {
	// Linear scan kept simple; flow tables in tests and examples are
	// small. A production monitor would keep an expiry heap.
	for key, st := range m.flows {
		if st.conn.Proto != trace.UDP {
			continue
		}
		if now-st.lastSeen > m.opts.UDPTimeout {
			st.conn.Duration = st.lastSeen - st.conn.TS
			m.ds.Conns = append(m.ds.Conns, st.conn)
			delete(m.flows, key)
		}
	}
}

func (m *Monitor) isLocal(a netip.Addr) bool { return m.opts.LocalNet.Contains(a) }

// Flush closes every open flow (end of capture) and returns the dataset,
// time-sorted.
func (m *Monitor) Flush() *trace.Dataset {
	for key, st := range m.flows {
		if st.conn.Proto == trace.UDP {
			st.conn.Duration = st.lastSeen - st.conn.TS
		} else {
			end := st.endTS
			if end == 0 {
				end = st.lastSeen
			}
			st.conn.Duration = end - st.conn.TS
		}
		m.ds.Conns = append(m.ds.Conns, st.conn)
		delete(m.flows, key)
	}
	m.ds.SortByTime()
	return &m.ds
}
