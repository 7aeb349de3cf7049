package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adoc"
	"adoc/adocmux"
	"adoc/adocnet"
	"adoc/internal/datagen"
)

const (
	proxyClients = 2
	// proxyFrame is the request header: op id, root span id, payload length.
	proxyFrame = hdrLen + 4
	// proxyWarm is the untimed warm-up.
	proxyWarm = time.Second
	// proxyMaxSize is the largest request payload.
	proxyMaxSize = 256 << 10
)

// proxySizes is the request size mix: every run of len(proxySizes)
// requests holds these sizes in a seeded order, so the mix is exact in
// every run and only its order depends on the seed.
var proxySizes = []int{16 << 10, 64 << 10, 64 << 10, proxyMaxSize}

// proxy sends requests from plain-TCP clients through adocmux.Ingress, one
// AdOC tunnel and adocmux.Egress to an echo backend. The tunnel's egress
// to ingress direction, which carries the echoes, runs over the paced
// 100 Mbit/s link; adocmux.Ingress has no dial hook, so the request
// direction stays unpaced loopback. Each client is a closed loop: it sends
// a request, waits for its echo and verifies it.
type proxy struct {
	e   *env
	src []byte // request payloads are slices of this buffer
	op  atomic.Int64

	backendLn, egressLn, ingressLn net.Listener
	ing                            *adocmux.Ingress
	eg                             *adocmux.Egress
	clients                        []net.Conn
	tunnel                         *linkStats // egress → ingress, paced
	egConn                         atomic.Pointer[adocnet.Conn]
	wg                             sync.WaitGroup

	mu       sync.Mutex
	backends []net.Conn
	// Backend receipt and echo times per op, kept while traced.
	recvAt, echoAt map[int64]time.Time
	// piped is the plain-TCP bytes the ingress carried during each window.
	piped map[*window]int64
}

func newProxy(e *env) (workload, error) {
	return &proxy{e: e, src: datagen.ASCII(1<<20, e.seed*1000+7), piped: map[*window]int64{}}, nil
}

func (p *proxy) setUp() error {
	p.tunnel = &linkStats{}
	p.recvAt, p.echoAt = map[int64]time.Time{}, map[int64]time.Time{}
	var lns [3]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i] = ln
	}
	p.backendLn, p.egressLn, p.ingressLn = lns[0], lns[1], lns[2]
	p.wg.Add(1)
	go p.backend()

	opts := adocmux.TransportOptions()
	p.eg = adocmux.NewEgress(p.backendLn.Addr().String(), adocmux.Config{})
	p.ing = adocmux.NewIngress(p.egressLn.Addr().String(), opts, adocmux.Config{})
	p.wg.Add(2)
	go p.serveEgress(opts)
	go func() { defer p.wg.Done(); p.ing.Serve(p.ingressLn) }()

	// Set-up ends with one small verified echo on each client. The first
	// opens the tunnel; the clients connect one after the other because
	// concurrent first clients would each dial a tunnel, and the ingress
	// keeps only one of them.
	msg := make([]byte, proxyFrame+helloSize)
	binary.BigEndian.PutUint32(msg[hdrLen:], helloSize)
	copy(msg[proxyFrame:], p.src)
	got := make([]byte, len(msg))
	p.clients = nil
	for i := range proxyClients {
		c, err := net.Dial("tcp", p.ingressLn.Addr().String())
		if err != nil {
			p.tearDown()
			return err
		}
		p.clients = append(p.clients, c)
		c.SetDeadline(time.Now().Add(p.e.opTimeout))
		_, err = c.Write(msg)
		if err == nil {
			_, err = io.ReadFull(c, got)
		}
		if err == nil && !bytes.Equal(got, msg) {
			err = errors.New("echo differs from the request")
		}
		if err != nil {
			p.tearDown()
			return fmt.Errorf("first echo on client %d: %w", i, err)
		}
		c.SetDeadline(time.Time{})
	}
	return nil
}

func (p *proxy) tearDown() {
	for _, c := range p.clients {
		c.Close()
	}
	p.ing.Close()
	p.eg.Close()
	p.ingressLn.Close()
	p.egressLn.Close()
	p.backendLn.Close()
	p.mu.Lock()
	for _, c := range p.backends {
		c.Close()
	}
	p.backends = nil
	p.mu.Unlock()
	p.wg.Wait()
}

// serveEgress accepts the ingress's tunnel connections over the paced
// link and serves each with the egress gateway. It keeps the connection so
// that the workload reports the engine that sends over the paced link.
func (p *proxy) serveEgress(opts adocnet.Options) {
	defer p.wg.Done()
	for {
		raw, err := p.egressLn.Accept()
		if err != nil {
			return
		}
		c, err := adocnet.Handshake(newLink(raw, lan100, p.tunnel, p.e), opts)
		if err != nil {
			raw.Close()
			continue
		}
		p.egConn.Store(c)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.eg.ServeConn(c)
		}()
	}
}

// backend accepts the egress's connections and echoes every frame.
func (p *proxy) backend() {
	defer p.wg.Done()
	for {
		c, err := p.backendLn.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		p.backends = append(p.backends, c)
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.echo(c)
		}()
	}
}

func (p *proxy) echo(c net.Conn) {
	defer c.Close()
	buf := make([]byte, proxyFrame+proxyMaxSize)
	for {
		if _, err := io.ReadFull(c, buf[:proxyFrame]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(buf[hdrLen:]))
		if n > len(buf)-proxyFrame {
			return
		}
		if _, err := io.ReadFull(c, buf[proxyFrame:proxyFrame+n]); err != nil {
			return
		}
		op, root := readHeader(buf)
		if root != 0 {
			p.mu.Lock()
			p.recvAt[op] = time.Now()
			p.mu.Unlock()
		}
		echoStart := time.Now()
		if _, err := c.Write(buf[:proxyFrame+n]); err != nil {
			return
		}
		if root != 0 {
			p.mu.Lock()
			p.echoAt[op] = echoStart
			p.mu.Unlock()
		}
	}
}

func (p *proxy) warmUp() error { return p.closedLoop(proxyWarm, nil) }

func (p *proxy) drive(w *window, d time.Duration) error {
	in0, out0 := p.ing.TunnelBytes()
	err := p.closedLoop(d, w)
	in1, out1 := p.ing.TunnelBytes()
	p.piped[w] = in1 + out1 - in0 - out0
	return err
}

// closedLoop runs every client for d, recording verified echoes in w when
// it is not nil.
func (p *proxy) closedLoop(d time.Duration, w *window) error {
	end := time.Now().Add(d)
	errs := make([]error, len(p.clients))
	var wg sync.WaitGroup
	for ci, c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[ci] = p.client(c, int64(ci), end, w)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// client sends requests on c one at a time until end and verifies each
// echo. A mismatch is counted and the loop goes on; a transport error ends
// it.
func (p *proxy) client(c net.Conn, ci int64, end time.Time, w *window) error {
	sizes := &sizer{rng: rand.New(rand.NewSource(p.e.seed*1000 + ci*100 + p.op.Load()))}
	frame := make([]byte, proxyFrame+proxyMaxSize)
	got := make([]byte, len(frame))
	for time.Now().Before(end) {
		op := p.op.Add(1)
		p.e.begin()
		size := sizes.next()
		off := sizes.rng.Intn(len(p.src) - size)
		want := p.src[off : off+size]
		var root int64
		tr := p.e.tr.Load()
		if tr != nil {
			root = tr.id()
		}
		req := frame[:proxyFrame+size]
		putHeader(req, op, root)
		binary.BigEndian.PutUint32(req[hdrLen:], uint32(size))
		copy(req[proxyFrame:], want)
		if p.e.tampers(op) {
			req = tampered(req)
		}
		t0 := time.Now()
		c.SetDeadline(t0.Add(p.e.opTimeout))
		if _, err := c.Write(req); err != nil {
			p.e.fail("op %d: sending request: %v", op, err)
			return err
		}
		echo := got[:len(req)]
		if _, err := io.ReadFull(c, echo); err != nil {
			p.e.fail("op %d: reading echo: %v", op, err)
			return err
		}
		t1 := time.Now()
		gotOp, gotRoot := readHeader(echo)
		n := int(binary.BigEndian.Uint32(echo[hdrLen:]))
		if gotOp != op || gotRoot != root || n != size || !bytes.Equal(echo[proxyFrame:], want) {
			p.e.fail("op %d: echo differs from the request", op)
			continue
		}
		if root != 0 {
			p.mu.Lock()
			recv, okR := p.recvAt[op]
			sent, okE := p.echoAt[op]
			delete(p.recvAt, op)
			delete(p.echoAt, op)
			p.mu.Unlock()
			if okR && okE {
				tr.record(tr.id(), root, op, "adocmux.gw_forward", t0, recv)
				tr.record(tr.id(), root, op, "backend.echo", recv, sent)
				tr.record(tr.id(), root, op, "adocmux.gw_return", sent, t1)
			}
			tr.record(root, 0, op, "op", t0, t1)
		}
		if w != nil {
			w.add(t1.Sub(t0), 2*int64(len(echo)))
		}
	}
	return nil
}

// sizer deals request sizes from proxySizes reshuffled every round.
type sizer struct {
	rng  *rand.Rand
	deck []int
}

func (s *sizer) next() int {
	if len(s.deck) == 0 {
		s.deck = append(s.deck, proxySizes...)
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	n := s.deck[0]
	s.deck = s.deck[1:]
	return n
}

func (p *proxy) wireBytes() int64 {
	s := p.egConn.Load().CounterStats()
	return s.WireSent + s.WireReceived
}

// stats returns the egress engine's counters: it sends the echoes over the
// paced link.
func (p *proxy) stats() adoc.Stats { return p.egConn.Load().Stats() }

func (p *proxy) links() []*linkStats { return []*linkStats{p.tunnel} }

func (p *proxy) layers(w *window, tr *tracing, m map[string]float64) {
	m["adocmux.gw_forward_ms"] = p50(tr.durations("adocmux.gw_forward"))
	m["adocmux.gw_return_ms"] = p50(tr.durations("adocmux.gw_return"))
	s0, s1 := w.statsAt, w.statsEnd
	m["adocmux.tunnel_wire_ratio"] = frac(float64(s1.WireSent+s1.WireReceived-s0.WireSent-s0.WireReceived),
		float64(p.piped[w]))
	m["adocnet.handshake_ms"] = handshakeMs(p.e, lan100, adocmux.TransportOptions())
}

func (p *proxy) codecSample() [][]byte { return [][]byte{p.src} }
