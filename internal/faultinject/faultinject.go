// Package faultinject is a deterministic TCP/HTTP chaos proxy for the
// failure suites: it sits in front of a worker node and injects faults —
// connection refusal, mid-stream connection reset, response latency,
// truncated response bodies (which, against the binary columnar wire,
// means truncated frames), and canned HTTP 500s — under a schedule that is
// a pure function of the accepted-connection index, so a seeded run
// reproduces the exact same fault sequence every time.
//
// Two Injector implementations cover the two kinds of test:
//
//   - Script plays an explicit per-connection fault list and then forwards
//     cleanly — the surgical tool for "the first connection dies after the
//     header, the second succeeds" regressions.
//   - Seeded draws from a weighted fault mix with a seeded PRNG — the
//     chaos-suite tool, with every decision written to a schedule log so a
//     CI failure can be replayed from the artifact.
//
// Independently of the schedule, SetDown(true) hard-kills the proxy: new
// connections are reset immediately without consulting the injector, which
// is how the flapping-node and all-replicas-down scenarios drive outages
// with test-controlled timing.
package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// None forwards the connection untouched.
	None Kind = iota
	// Refuse resets the connection at accept time, before reading the
	// request — the client sees a connect-phase failure (ECONNRESET/EOF
	// before any response byte), the same class as a dead listener.
	Refuse
	// Reset forwards the request, then hard-resets (RST) the client after
	// After response bytes — a worker dying mid-stream.
	Reset
	// Truncate forwards the request, then closes the client cleanly (FIN)
	// after After response bytes — a truncated stream: against the columnar
	// wire encoding this cuts a frame mid-payload.
	Truncate
	// Latency delays the first response byte by Delay, then forwards
	// untouched — a slow worker, for timeout and jitter paths.
	Latency
	// Status500 swallows the request and answers a canned HTTP 500 without
	// contacting the upstream at all.
	Status500
)

// String names the fault kind for schedule logs.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Refuse:
		return "refuse"
	case Reset:
		return "reset"
	case Truncate:
		return "truncate"
	case Latency:
		return "latency"
	case Status500:
		return "status500"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one injected failure: the kind plus its parameter — After
// response bytes forwarded before Reset/Truncate strike, Delay before the
// first response byte for Latency.
type Fault struct {
	Kind  Kind
	After int
	Delay time.Duration
}

func (f Fault) String() string {
	switch f.Kind {
	case Reset, Truncate:
		return fmt.Sprintf("%s after %dB", f.Kind, f.After)
	case Latency:
		return fmt.Sprintf("%s %v", f.Kind, f.Delay)
	default:
		return f.Kind.String()
	}
}

// Injector decides the fault for the proxy's n-th accepted connection
// (0-based). Implementations must be safe for calls from the accept loop;
// determinism is their whole point.
type Injector interface {
	Fault(conn int) Fault
}

// Script plays an explicit fault sequence: connection i gets Script[i], and
// every connection past the end is forwarded cleanly.
type Script []Fault

// Fault implements Injector.
func (s Script) Fault(conn int) Fault {
	if conn < len(s) {
		return s[conn]
	}
	return Fault{Kind: None}
}

// Weights is the per-kind decision weight of a Seeded injector. Zero-valued
// kinds are never drawn; Clean is the weight of injecting nothing.
type Weights struct {
	Clean     int
	Refuse    int
	Reset     int
	Truncate  int
	Latency   int
	Status500 int
}

// Seeded draws each connection's fault from a weighted mix with a PRNG
// seeded once at construction: the schedule is a pure function of the seed
// and the connection order.
type Seeded struct {
	weights Weights
	// MaxAfter bounds the bytes forwarded before Reset/Truncate (drawn
	// uniformly in [0, MaxAfter)); MaxDelay bounds Latency the same way.
	maxAfter int
	maxDelay time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewSeeded builds a Seeded injector. maxAfter and maxDelay bound the
// Reset/Truncate byte threshold and the Latency delay.
func NewSeeded(seed int64, w Weights, maxAfter int, maxDelay time.Duration) *Seeded {
	if maxAfter <= 0 {
		maxAfter = 1 << 16
	}
	if maxDelay <= 0 {
		maxDelay = 20 * time.Millisecond
	}
	return &Seeded{
		weights:  w,
		maxAfter: maxAfter,
		maxDelay: maxDelay,
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Fault implements Injector: one weighted draw per connection.
func (s *Seeded) Fault(int) Fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.weights
	total := w.Clean + w.Refuse + w.Reset + w.Truncate + w.Latency + w.Status500
	if total <= 0 {
		return Fault{Kind: None}
	}
	n := s.rng.Intn(total)
	switch {
	case n < w.Clean:
		return Fault{Kind: None}
	case n < w.Clean+w.Refuse:
		return Fault{Kind: Refuse}
	case n < w.Clean+w.Refuse+w.Reset:
		return Fault{Kind: Reset, After: s.rng.Intn(s.maxAfter)}
	case n < w.Clean+w.Refuse+w.Reset+w.Truncate:
		return Fault{Kind: Truncate, After: s.rng.Intn(s.maxAfter)}
	case n < w.Clean+w.Refuse+w.Reset+w.Truncate+w.Latency:
		return Fault{Kind: Latency, Delay: time.Duration(s.rng.Int63n(int64(s.maxDelay)))}
	default:
		return Fault{Kind: Status500}
	}
}

// canned500 is the Status500 response: a complete, connection-closing HTTP
// reply so well-behaved clients surface a clean status error.
const canned500 = "HTTP/1.1 500 Internal Server Error\r\n" +
	"Content-Type: text/plain\r\n" +
	"Content-Length: 21\r\n" +
	"Connection: close\r\n\r\n" +
	"faultinject: injected"

// Proxy is one chaos proxy instance: it listens on a loopback port and
// forwards every accepted connection to the target address, applying the
// injector's fault for that connection index.
type Proxy struct {
	target string
	inj    Injector
	logw   io.Writer // written only from the accept loop (single writer)

	ln     net.Listener
	conns  atomic.Int64
	down   atomic.Bool
	closed atomic.Bool

	mu   sync.Mutex
	live map[net.Conn]struct{}

	wg sync.WaitGroup // accept loop + connection handlers
}

// New starts a proxy in front of target ("host:port"). Every accept
// decision is logged to logw (nil = discard); the log is the injected-fault
// schedule the CI chaos job archives.
func New(target string, inj Injector, logw io.Writer) (*Proxy, error) {
	if inj == nil {
		inj = Script(nil)
	}
	if logw == nil {
		logw = io.Discard
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultinject: listen: %w", err)
	}
	p := &Proxy{target: target, inj: inj, logw: logw, ln: ln, live: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address ("127.0.0.1:port").
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL is the proxy's base URL ("http://127.0.0.1:port") — what a cluster
// config lists as the replica address.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Conns is the number of connections accepted so far.
func (p *Proxy) Conns() int64 { return p.conns.Load() }

// SetDown toggles the hard-down state: while down, every new connection is
// reset immediately (the node is dead), without consuming the injector's
// schedule. Flapping a node is SetDown(true); ...; SetDown(false).
func (p *Proxy) SetDown(down bool) { p.down.Store(down) }

// Sever hard-kills (RST) every live connection while leaving the listener
// up — a worker crashing mid-stream and coming straight back: streams in
// flight die, new connections keep following the schedule. Combine with
// SetDown(true) for a crash the node does not come back from.
func (p *Proxy) Sever() {
	p.mu.Lock()
	open := make([]net.Conn, 0, len(p.live))
	for c := range p.live {
		open = append(open, c)
	}
	p.mu.Unlock()
	for _, c := range open {
		hardClose(c)
	}
}

// Close stops the proxy: the listener closes, every live connection is
// severed, and Close returns once all handlers exited.
func (p *Proxy) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	err := p.ln.Close()
	p.mu.Lock()
	open := make([]net.Conn, 0, len(p.live))
	for c := range p.live {
		open = append(open, c)
	}
	p.mu.Unlock()
	for _, c := range open {
		c.Close()
	}
	p.wg.Wait()
	return err
}

// track registers a live connection so Sever and Close can reach it. Once
// the proxy is closed it refuses, closes c itself and reports false: Close
// sets closed before it snapshots live, so a connection that was accepted or
// dialled just before is either in the snapshot or turned away here — never
// left open behind Close's wg.Wait.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	closed := p.closed.Load()
	if !closed {
		p.live[c] = struct{}{}
	}
	p.mu.Unlock()
	if closed {
		c.Close()
	}
	return !closed
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.live, c)
	p.mu.Unlock()
}

// acceptLoop is the single scheduler: it draws each connection's fault (or
// the down override), logs the decision, and hands the connection to a
// handler goroutine. Being the only writer, it needs no lock around logw.
func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n := p.conns.Add(1) - 1
		var f Fault
		if p.down.Load() {
			f = Fault{Kind: Refuse}
			fmt.Fprintf(p.logw, "conn %d: refuse (down)\n", n)
		} else {
			f = p.inj.Fault(int(n))
			fmt.Fprintf(p.logw, "conn %d: %s\n", n, f)
		}
		p.wg.Add(1)
		go p.serve(conn, f)
	}
}

// hardClose resets the peer: linger 0 turns Close into an RST, so the
// client observes a connection reset rather than a clean EOF.
func hardClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

// serve applies one connection's fault.
func (p *Proxy) serve(client net.Conn, f Fault) {
	defer p.wg.Done()
	if !p.track(client) {
		return
	}
	defer p.untrack(client)

	switch f.Kind {
	case Refuse:
		hardClose(client)
		return
	case Status500:
		// Wait for the request to arrive before answering — an HTTP client
		// that sees a response before it finished sending treats the
		// connection as poisoned rather than parsing the 500.
		readRequest(client)
		client.Write([]byte(canned500))
		client.Close()
		return
	}

	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		hardClose(client)
		return
	}
	if !p.track(upstream) {
		client.Close()
		return
	}
	defer p.untrack(upstream)

	// Request direction: forward untouched. When the response side decides
	// the connection's fate it closes both conns, unblocking this copy.
	done := make(chan struct{})
	go func() {
		io.Copy(upstream, client)
		close(done)
	}()

	p.copyResponse(client, upstream, f)
	client.Close()
	upstream.Close()
	<-done
}

// readRequest consumes the client's request — headers plus a declared
// Content-Length body (bounded, with a deadline) — so the client considers
// the request fully sent, and no unread bytes linger to turn the close
// into an RST before the canned response is read.
func readRequest(c net.Conn) {
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	buf := make([]byte, 8192)
	var seen []byte
	want := -1
	for len(seen) < 256*1024 {
		if want < 0 {
			if i := bytes.Index(seen, []byte("\r\n\r\n")); i >= 0 {
				want = i + 4 + contentLength(seen[:i])
			}
		}
		if want >= 0 && len(seen) >= want {
			return
		}
		n, err := c.Read(buf)
		seen = append(seen, buf[:n]...)
		if err != nil {
			return
		}
	}
}

// contentLength extracts a Content-Length header from a raw header block
// (0 when absent or malformed).
func contentLength(headers []byte) int {
	for _, line := range bytes.Split(headers, []byte("\r\n")) {
		name, value, ok := bytes.Cut(line, []byte(":"))
		if ok && strings.EqualFold(string(bytes.TrimSpace(name)), "Content-Length") {
			n, err := strconv.Atoi(string(bytes.TrimSpace(value)))
			if err != nil || n < 0 {
				return 0
			}
			return n
		}
	}
	return 0
}

// copyResponse forwards upstream→client, applying the response-side fault:
// Latency sleeps before the first byte; Reset/Truncate stop after After
// bytes, with Reset sending an RST and Truncate a clean FIN.
func (p *Proxy) copyResponse(client, upstream net.Conn, f Fault) {
	if f.Kind == Latency && f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	limit := -1
	if f.Kind == Reset || f.Kind == Truncate {
		limit = f.After
	}
	buf := make([]byte, 16*1024)
	forwarded := 0
	for {
		chunk := len(buf)
		if limit >= 0 && forwarded+chunk > limit {
			chunk = limit - forwarded
		}
		if chunk == 0 {
			// Budget exhausted: strike.
			if f.Kind == Reset {
				hardClose(client)
			}
			return
		}
		n, err := upstream.Read(buf[:chunk])
		if n > 0 {
			if _, werr := client.Write(buf[:n]); werr != nil {
				return
			}
			forwarded += n
		}
		if err != nil {
			return
		}
	}
}
