package dnsserver

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"dnscontext/internal/dnswire"
	"dnscontext/internal/obs"
	"dnscontext/internal/stats"
	"dnscontext/internal/zonedb"
)

func startZoneServer(t *testing.T) (*Server, *zonedb.DB, string) {
	t.Helper()
	zones, err := zonedb.New(zonedb.Config{
		NumNames: 50, ZipfExponent: 1, CDNFraction: 0.3, CDNPoolSize: 5,
	}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ZoneHandler(zones))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, zones, addr.String()
}

func TestQueryOverRealUDP(t *testing.T) {
	_, zones, addr := startZoneServer(t)
	c := &Client{Server: addr, Timeout: time.Second}

	name := zones.ByRank(0)
	resp, err := c.Query(name.Host, dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNoError || !resp.Header.Authoritative {
		t.Fatalf("header %+v", resp.Header)
	}
	addrs := resp.AnswerAddrs()
	if len(addrs) != len(name.Addrs) || addrs[0] != name.Addrs[0] {
		t.Fatalf("answers %v, want %v", addrs, name.Addrs)
	}
	wantTTL := uint32(name.TTL / time.Second)
	if resp.Answers[0].TTL != wantTTL {
		t.Fatalf("TTL %d, want %d", resp.Answers[0].TTL, wantTTL)
	}
}

func TestNXDomainOverRealUDP(t *testing.T) {
	_, _, addr := startZoneServer(t)
	c := &Client{Server: addr, Timeout: time.Second}
	resp, err := c.Query("definitely.not.here", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNXDomain || len(resp.Answers) != 0 {
		t.Fatalf("resp %+v", resp)
	}
}

func TestAAAAEmptyNoError(t *testing.T) {
	_, zones, addr := startZoneServer(t)
	c := &Client{Server: addr, Timeout: time.Second}
	resp, err := c.Query(zones.ByRank(0).Host, dnswire.TypeAAAA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answers) != 0 {
		t.Fatalf("AAAA resp %+v", resp)
	}
}

func TestServerSurvivesGarbage(t *testing.T) {
	srv, zones, addr := startZoneServer(t)
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The server must still answer after swallowing garbage.
	c := &Client{Server: addr, Timeout: time.Second}
	if _, err := c.Query(zones.ByRank(1).Host, dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if srv.Queries() < 2 {
		t.Fatalf("queries %d", srv.Queries())
	}
}

func TestConcurrentClients(t *testing.T) {
	_, zones, addr := startZoneServer(t)
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			c := &Client{Server: addr, Timeout: 2 * time.Second}
			name := zones.ByRank(i % 10)
			resp, err := c.Query(name.Host, dnswire.TypeA)
			if err == nil && len(resp.AnswerAddrs()) == 0 {
				err = fmt.Errorf("no answers for %s", name.Host)
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestClientTimeout(t *testing.T) {
	// A bound-but-silent socket: the client must time out, not hang.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	defer conn.Close()
	c := &Client{Server: conn.LocalAddr().String(), Timeout: 150 * time.Millisecond, Retries: 1}
	start := time.Now()
	_, err = c.Query("x.com", dnswire.TypeA)
	if err == nil {
		t.Fatal("silent server answered?")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

func TestHandlerNilMeansServFail(t *testing.T) {
	srv := NewServer(HandlerFunc(func(*dnswire.Message) *dnswire.Message { return nil }))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	defer srv.Close()
	c := &Client{Server: addr.String(), Timeout: time.Second}
	resp, err := c.Query("x.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode %v", resp.Header.RCode)
	}
}

func TestPerRCodeCountsOverRealUDP(t *testing.T) {
	srv, zones, addr := startZoneServer(t)
	c := &Client{Server: addr, Timeout: time.Second}

	// Two NOERROR answers, one NXDOMAIN, and one undecodable datagram.
	for i := 0; i < 2; i++ {
		if _, err := c.Query(zones.ByRank(i).Host, dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query("definitely.not.here", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0xba, 0xad}); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The garbage datagram carries no response, so wait until the decode
	// error is visible rather than racing the serve loop.
	deadline := time.Now().Add(2 * time.Second)
	for srv.DecodeErrors() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	if got := srv.Responses(dnswire.RCodeNoError); got != 2 {
		t.Fatalf("NOERROR responses %d, want 2", got)
	}
	if got := srv.Responses(dnswire.RCodeNXDomain); got != 1 {
		t.Fatalf("NXDOMAIN responses %d, want 1", got)
	}
	if got := srv.DecodeErrors(); got != 1 {
		t.Fatalf("decode errors %d, want 1", got)
	}
	if got, want := srv.Queries(), uint64(4); got != want {
		t.Fatalf("queries %d, want %d", got, want)
	}

	// The same numbers must surface through the registry snapshot, with
	// the rcode label carrying the mnemonic.
	var noerr, nx uint64
	snap := srv.Metrics().Snapshot()
	for _, fam := range snap.Families {
		if fam.Name != "dnsctx_dnsserver_responses_total" {
			continue
		}
		for _, m := range fam.Metrics {
			switch m.Labels[0].Value {
			case "NOERROR":
				noerr = uint64(m.Value)
			case "NXDOMAIN":
				nx = uint64(m.Value)
			}
		}
	}
	if noerr != 2 || nx != 1 {
		t.Fatalf("snapshot NOERROR=%d NXDOMAIN=%d, want 2/1", noerr, nx)
	}
}

func TestMetricsSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServerObserved(HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		return dnswire.NewResponse(q, dnswire.RCodeRefused)
	}), reg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	defer srv.Close()
	if srv.Metrics() != reg {
		t.Fatal("server did not adopt the provided registry")
	}
	c := &Client{Server: addr.String(), Timeout: time.Second}
	if _, err := c.Query("x.com", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if got := srv.Responses(dnswire.RCodeRefused); got != 1 {
		t.Fatalf("REFUSED responses %d, want 1", got)
	}
}

func TestCloseIdempotentAndUnblocks(t *testing.T) {
	srv, _, _ := startZoneServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err == nil || errors.Is(err, net.ErrClosed) {
		// Double close returns the underlying close error; both shapes
		// are acceptable, the point is it must not hang or panic.
		_ = err
	}
}

// TestClientMismatchEndsLadder: a response answering a different
// question is ErrMismatch after exactly one send, over UDP and TCP. The
// server is alive and would give the same answer again, so the client
// must not spend its retries re-asking.
func TestClientMismatchEndsLadder(t *testing.T) {
	other := HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
		resp.Questions[0].Name = "other.example"
		return resp
	})
	for _, tc := range []struct {
		name  string
		start func(*Server) (string, error)
		query func(*Client) (*dnswire.Message, error)
	}{
		{"udp", func(s *Server) (string, error) {
			a, err := s.Start("127.0.0.1:0")
			if err != nil {
				return "", err
			}
			return a.String(), nil
		}, func(c *Client) (*dnswire.Message, error) { return c.Query("www.example.com", dnswire.TypeA) }},
		{"tcp", func(s *Server) (string, error) {
			a, err := s.StartTCP("127.0.0.1:0")
			if err != nil {
				return "", err
			}
			return a.String(), nil
		}, func(c *Client) (*dnswire.Message, error) { return c.QueryTCP("www.example.com", dnswire.TypeA) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(other)
			addr, err := tc.start(srv)
			if err != nil {
				t.Skipf("cannot bind loopback: %v", err)
			}
			defer srv.Close()
			c := &Client{Server: addr, Timeout: time.Second, Retries: 2}
			if _, err := tc.query(c); !errors.Is(err, ErrMismatch) {
				t.Fatalf("err = %v, want ErrMismatch", err)
			}
			if got := srv.Queries(); got != 1 {
				t.Fatalf("server received %d queries, want 1 (no retry after a mismatch)", got)
			}
		})
	}
}
