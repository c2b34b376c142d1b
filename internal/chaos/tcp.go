package chaos

import (
	"fmt"
	"net"
)

// NewTCP starts a TCP fault proxy forwarding to cfg.Upstream. Stream
// semantics narrow the applicable faults: Loss, Duplicate, and Reorder
// are ignored (the kernel would repair or the stream would be
// corrupted irrecoverably); Delay/Jitter stall chunks in order,
// Corrupt flips bytes in flight, Blackholes stall the stream until the
// window passes, and TCPReset tears the connection down mid-stream
// with an RST.
func NewTCP(cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	p := newProxy(cfg)
	p.ln = ln
	p.addr = ln.Addr().String()
	p.wg.Add(1)
	go p.serveTCP()
	return p, nil
}

func (p *Proxy) serveTCP() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		upstream, err := net.Dial("tcp", p.cfg.Upstream)
		if err != nil {
			client.Close()
			continue
		}
		if !p.track(client) || !p.track(upstream) {
			client.Close()
			upstream.Close()
			return
		}
		p.wg.Add(2)
		go p.pumpTCP(p.up, client, upstream)
		go p.pumpTCP(p.down, upstream, client)
	}
}

// pumpTCP copies src to dst chunk by chunk, running each chunk through
// the lane's fault pipeline. Either side failing (or a reset fate)
// closes both, which also stops the sibling pump.
func (p *Proxy) pumpTCP(l *lane, src, dst net.Conn) {
	defer p.wg.Done()
	defer func() {
		src.Close()
		dst.Close()
		p.untrack(src)
		p.untrack(dst)
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			f := l.decide(p.cfg.Profile, p.elapsed())
			if f.blackhole {
				// A stream cannot drop bytes; the blackhole manifests as a
				// stall until the window passes (or the proxy closes).
				p.cnt.blackholed.Add(1)
				l.dropBlack.Inc()
				if !p.sleep(p.cfg.Profile.faults().OutageEnd(p.elapsed()) - p.elapsed()) {
					return
				}
			}
			if f.reset {
				p.cnt.resets.Add(1)
				p.cnt.mResets.Inc()
				// SO_LINGER 0 turns Close into an immediate RST — the
				// mid-stream abort a real middlebox or crashing server
				// produces.
				if tc, ok := src.(*net.TCPConn); ok {
					_ = tc.SetLinger(0)
				}
				if tc, ok := dst.(*net.TCPConn); ok {
					_ = tc.SetLinger(0)
				}
				return
			}
			if f.corrupt {
				corruptByte(buf[:n], f.corruptAt)
				p.cnt.corrupted.Add(1)
				l.corrupted.Inc()
			}
			if f.delay > 0 {
				p.cnt.delayed.Add(1)
				l.delayed.Inc()
				if !p.sleep(f.delay) {
					return
				}
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			p.cnt.forwarded.Add(1)
			l.forwarded.Inc()
		}
		if err != nil {
			return
		}
	}
}
