// Package dnsserver runs the dnswire codec over real UDP sockets: a
// minimal authoritative server that can serve a zonedb namespace on
// localhost, and a stub client with retry/timeout handling. It exists to
// prove the wire codec end to end over an actual network stack (not just
// in-memory buffers) and to let examples and tools resolve against the
// synthetic namespace with standard DNS tooling semantics.
//
// The server degrades gracefully rather than dying: queries flow
// through a bounded queue into a worker pool, handler panics are
// recovered into SERVFAIL responses, per-client token buckets answer
// REFUSED under abuse, a full queue sheds load, and Shutdown drains
// in-flight queries before closing the socket. Every degradation path
// is counted through the obs registry.
package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dnscontext/internal/dnswire"
	"dnscontext/internal/obs"
	"dnscontext/internal/resolver"
	"dnscontext/internal/zonedb"
)

// Handler produces a response message for one query. Implementations
// must not retain msg.
type Handler interface {
	Handle(msg *dnswire.Message) *dnswire.Message
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(*dnswire.Message) *dnswire.Message

// Handle calls f.
func (f HandlerFunc) Handle(m *dnswire.Message) *dnswire.Message { return f(m) }

// Config parameterizes the server's hardening. The zero value gets
// sensible defaults: 4 workers, a 256-deep queue, no rate limiting.
type Config struct {
	// Workers is the size of the handler pool (default 4).
	Workers int
	// QueueDepth bounds the pending-query queue; datagrams arriving
	// with the queue full are shed (default 256).
	QueueDepth int
	// RateLimit, when non-nil, enables per-client token-bucket rate
	// limiting: over-limit queries are answered REFUSED.
	RateLimit *RateLimitConfig
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	return c
}

// packet is one received datagram awaiting a worker.
type packet struct {
	data []byte
	peer *net.UDPAddr
}

// Server is a UDP DNS server with a bounded worker pool.
type Server struct {
	handler Handler
	cfg     Config
	limiter *rateLimiter

	mu       sync.Mutex
	conn     *net.UDPConn
	closed   bool // Close called: stop everything
	draining bool // Shutdown called: stop reading, finish the queue
	queue    chan packet

	readerWG sync.WaitGroup
	workerWG sync.WaitGroup

	// TCP listener state (see tcp.go); nil/empty unless StartTCP ran.
	tcpLn    net.Listener
	tcpConns map[net.Conn]struct{}
	tcpWG    sync.WaitGroup

	// closeOnce makes socket teardown idempotent: Close and Shutdown
	// (or two Closes) race safely and agree on the returned error.
	closeOnce sync.Once
	closeErr  error

	// reg backs the per-RCode response counts and degradation tallies;
	// metrics fans activity into it.
	reg     *obs.Registry
	metrics srvMetrics
}

// NewServer returns a server that answers with h, counting into a
// private registry.
func NewServer(h Handler) *Server {
	return NewServerObserved(h, nil)
}

// NewServerObserved returns a server that answers with h and records its
// activity in reg. A nil reg falls back to a private registry — the
// counters always exist, because Queries() is derived from them.
func NewServerObserved(h Handler, reg *obs.Registry) *Server {
	return NewServerWith(h, Config{}, reg)
}

// NewServerWith returns a server with explicit hardening configuration.
// A nil reg falls back to a private registry.
func NewServerWith(h Handler, cfg Config, reg *obs.Registry) *Server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{handler: h, cfg: cfg.withDefaults(), reg: reg, metrics: newSrvMetrics(reg)}
	if cfg.RateLimit != nil {
		s.limiter = newRateLimiter(*cfg.RateLimit)
	}
	return s
}

// Metrics returns the registry the server counts into.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Start binds addr (e.g. "127.0.0.1:0") and serves until Close or
// Shutdown. It returns the bound address, useful with port 0.
func (s *Server) Start(addr string) (*net.UDPAddr, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: %w", err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: %w", err)
	}
	// Bulk clients (cmd/dnsscan) burst tens of thousands of queries;
	// a deep kernel buffer absorbs what the reader loop hasn't drained
	// yet, so overload surfaces as a counted queue shed rather than a
	// silent kernel drop. Best-effort: the OS caps it silently.
	_ = conn.SetReadBuffer(4 << 20)
	s.mu.Lock()
	s.conn = conn
	s.queue = make(chan packet, s.cfg.QueueDepth)
	s.mu.Unlock()

	s.readerWG.Add(1)
	go s.read(conn)
	s.workerWG.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker(conn)
	}
	return conn.LocalAddr().(*net.UDPAddr), nil
}

// read is the socket loop: it only reads, copies, and enqueues, so one
// slow handler can never stall ingestion — a full queue sheds instead.
// Closing the queue when the loop exits is what lets workers drain and
// then stop.
func (s *Server) read(conn *net.UDPConn) {
	defer s.readerWG.Done()
	defer close(s.queue)
	buf := make([]byte, 4096)
	for {
		n, peer, err := conn.ReadFromUDP(buf)
		if err != nil {
			s.mu.Lock()
			stop := s.closed || s.draining
			s.mu.Unlock()
			if stop {
				return
			}
			continue
		}
		s.metrics.received.Inc()
		data := make([]byte, n)
		copy(data, buf[:n])
		select {
		case s.queue <- packet{data: data, peer: peer}:
		default:
			s.metrics.shed.Inc() // overload: drop rather than block the socket
		}
	}
}

func (s *Server) worker(conn *net.UDPConn) {
	defer s.workerWG.Done()
	for pkt := range s.queue {
		s.handlePacket(conn, pkt)
	}
}

func (s *Server) handlePacket(conn *net.UDPConn, pkt packet) {
	// A datagram that does not decode is garbage: drop it, as real
	// servers do.
	if out, _ := s.answer(pkt.data, pkt.peer.IP); out != nil {
		_, _ = conn.WriteToUDP(out, pkt.peer)
	}
}

// answer is the path every received query takes, over UDP and TCP alike:
// decode, rate limiter, handler (SERVFAIL on nil), encode, and the
// per-RCode count. It returns the wire response, or nil when there is
// nothing to send; the error is non-nil only when data does not decode,
// which each transport handles its own way. client may be nil when the
// peer address is unknown, which bypasses the rate limiter.
func (s *Server) answer(data []byte, client net.IP) ([]byte, error) {
	msg, err := dnswire.Decode(data)
	if err != nil {
		s.metrics.decodeErrs.Inc()
		return nil, err
	}
	if msg.Header.Response || len(msg.Questions) == 0 {
		s.metrics.dropped.Inc()
		return nil, nil
	}
	var resp *dnswire.Message
	if s.limiter != nil && client != nil && !s.limiter.allow(client, time.Now()) {
		s.metrics.refused.Inc()
		resp = dnswire.NewResponse(msg, dnswire.RCodeRefused)
	} else if resp = s.invoke(msg); resp == nil {
		resp = dnswire.NewResponse(msg, dnswire.RCodeServFail)
	}
	out, err := resp.Encode()
	if err != nil {
		s.metrics.encodeErrs.Inc()
		return nil, nil
	}
	s.metrics.response(resp.Header.RCode).Inc()
	return out, nil
}

// invoke runs the handler with panic recovery: a panicking handler
// costs that query a SERVFAIL, never the server.
func (s *Server) invoke(msg *dnswire.Message) (resp *dnswire.Message) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Inc()
			resp = dnswire.NewResponse(msg, dnswire.RCodeServFail)
		}
	}()
	return s.handler.Handle(msg)
}

// Queries returns the number of datagrams received so far.
func (s *Server) Queries() uint64 { return s.metrics.received.Value() }

// Responses returns the number of responses sent with the given RCode.
func (s *Server) Responses(rc dnswire.RCode) uint64 {
	return s.metrics.response(rc).Value()
}

// DecodeErrors returns the number of undecodable datagrams received.
func (s *Server) DecodeErrors() uint64 { return s.metrics.decodeErrs.Value() }

// Panics returns the number of handler panics recovered.
func (s *Server) Panics() uint64 { return s.metrics.panics.Value() }

// Refused returns the number of queries rate-limited to REFUSED.
func (s *Server) Refused() uint64 { return s.metrics.refused.Value() }

// Shed returns the number of datagrams dropped on a full queue.
func (s *Server) Shed() uint64 { return s.metrics.shed.Value() }

// Shutdown gracefully stops the server: it stops reading new
// datagrams, drains queries already queued, then closes the socket. If
// ctx expires first the socket is closed immediately and ctx's error
// returned; queued work may be abandoned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	conn := s.conn
	s.mu.Unlock()
	s.closeTCP()
	if conn == nil {
		return nil
	}
	// Unblock the reader; with draining set, its next read error exits
	// the loop, which closes the queue, which lets workers drain out.
	_ = conn.SetReadDeadline(time.Now())

	done := make(chan struct{})
	go func() {
		s.readerWG.Wait()
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.closeConn()
	case <-ctx.Done():
		_ = s.closeConn()
		return ctx.Err()
	}
}

// Close stops the server immediately and waits for the reader and
// workers to exit. Safe to call multiple times and concurrently with
// Shutdown; repeated calls return the first close's error.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conn := s.conn
	s.mu.Unlock()
	s.closeTCP()
	if conn == nil {
		return nil
	}
	err := s.closeConn()
	s.readerWG.Wait()
	s.workerWG.Wait()
	return err
}

// closeConn closes the socket exactly once, remembering the error.
func (s *Server) closeConn() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		conn := s.conn
		s.mu.Unlock()
		if conn != nil {
			s.closeErr = conn.Close()
		}
	})
	return s.closeErr
}

// ZoneHandler serves A queries from a zonedb namespace, answering
// NXDOMAIN for unknown names and NOTIMP for unsupported opcodes. AAAA
// queries for known names return empty NOERROR (the namespace is
// v4-only), matching the generator's dual-stack behavior.
func ZoneHandler(zones *zonedb.DB) Handler {
	return HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		if q.Header.Opcode != dnswire.OpcodeQuery {
			return dnswire.NewResponse(q, dnswire.RCodeNotImp)
		}
		question := q.Questions[0]
		name := zones.Lookup(dnswire.CanonicalName(question.Name))
		if name == nil {
			return dnswire.NewResponse(q, dnswire.RCodeNXDomain)
		}
		resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
		resp.Header.Authoritative = true
		if question.Type == dnswire.TypeA || question.Type == dnswire.TypeANY {
			ttl := uint32(name.TTL / time.Second)
			for _, addr := range name.Addrs {
				resp.AddAnswerA(question.Name, addr, ttl)
			}
		}
		return resp
	})
}

// Client is a stub resolver speaking plain UDP DNS (Query) or one
// connection per attempt over TCP (QueryTCP).
type Client struct {
	// Server is the resolver address ("127.0.0.1:5353").
	Server string
	// Timeout bounds each attempt (default 2 s).
	Timeout time.Duration
	// Retries is the number of additional attempts (zero or negative:
	// none).
	Retries int

	mu     sync.Mutex
	nextID uint16
}

// Errors returned by Query.
var (
	ErrTimeout  = errors.New("dnsserver: query timed out")
	ErrMismatch = errors.New("dnsserver: response does not match query")
)

// Query sends one question and returns the decoded response. Responses
// with mismatched IDs are ignored (off-path spoofing hygiene); timeouts
// are retried; a response answering a different question is
// ErrMismatch, without retry.
func (c *Client) Query(name string, qtype dnswire.Type) (*dnswire.Message, error) {
	return c.exchange(name, qtype, c.attempt)
}

// exchange walks the client's flat retry ladder (resolver.RetryPolicy
// with Timeout and Retries) over one per-attempt function, re-sending
// the same encoded query. Silence and transport errors retry; a
// mismatched answer or a reset stream ends the ladder, since the server
// is alive and would answer the same way again.
func (c *Client) exchange(name string, qtype dnswire.Type, try func(wire []byte, id uint16, name string, timeout time.Duration) (*dnswire.Message, error)) (*dnswire.Message, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ladder := resolver.RetryPolicy{Timeout: timeout, MaxRetries: c.Retries}

	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()

	wire, err := dnswire.NewQuery(id, name, qtype).Encode()
	if err != nil {
		return nil, err
	}
	var lastErr error = ErrTimeout
	for i := 0; i < ladder.Attempts(); i++ {
		resp, err := try(wire, id, name, ladder.AttemptTimeout(i))
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if errors.Is(err, ErrMismatch) || errors.Is(err, ErrReset) {
			break
		}
	}
	return nil, lastErr
}

// matchResponse classifies a decoded message against the query (id,
// name) it may answer. ours is false for anything that is not a response
// to id: the caller keeps waiting. A response to id whose question is
// not name is ErrMismatch.
func matchResponse(msg *dnswire.Message, id uint16, name string) (ours bool, err error) {
	if msg.Header.ID != id || !msg.Header.Response {
		return false, nil
	}
	if len(msg.Questions) == 0 ||
		dnswire.CanonicalName(msg.Questions[0].Name) != dnswire.CanonicalName(name) {
		return true, ErrMismatch
	}
	return true, nil
}

func (c *Client) attempt(wire []byte, id uint16, name string, timeout time.Duration) (*dnswire.Message, error) {
	conn, err := net.Dial("udp", c.Server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, err
		}
		msg, err := dnswire.Decode(buf[:n])
		if err != nil {
			continue // garbage datagram; keep waiting
		}
		if ours, err := matchResponse(msg, id, name); ours {
			if err != nil {
				return nil, err
			}
			return msg, nil
		}
	}
}
