package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"adoc"
	"adoc/adocnet"
	"adoc/internal/datagen"
)

// lan100 is the paced link's rate: the paper's 100 Mbit/s LAN.
const lan100 = 100e6

const (
	bulkMsgSize = 4 << 20
	// bulkVariants is how many different messages of each datagen kind a
	// run rotates through.
	bulkVariants = 2
	// bulkWarmOps is one pass over every message before timing starts.
	bulkWarmOps = 3 * bulkVariants
	// hdrLen is the payload header every op carries: its op id and the id
	// of its root span (0 when untraced).
	hdrLen = 16
	// helloSize is the small message, op 0, that ends each set-up. It is
	// under the engine's small-message threshold, so it neither runs the
	// bandwidth probe nor moves the controller.
	helloSize = 1 << 10
)

func putHeader(b []byte, op, parent int64) {
	binary.BigEndian.PutUint64(b[0:8], uint64(op))
	binary.BigEndian.PutUint64(b[8:16], uint64(parent))
}

func readHeader(b []byte) (op, parent int64) {
	return int64(binary.BigEndian.Uint64(b[0:8])), int64(binary.BigEndian.Uint64(b[8:16]))
}

// bulk sends 4 MB messages stop-and-wait over one adocnet connection: the
// sender writes a message, the receiver verifies it and answers with a
// 16-byte ack, and only then does the next message go out. Messages rotate
// through the ASCII, binary and incompressible datagen kinds.
type bulk struct {
	e     *env
	rate  float64 // link bits per second; 0 is unpaced loopback
	opts  adocnet.Options
	hello []byte
	msgs  [][]byte
	op    int64

	ln       net.Listener
	cliLink  *link
	srvLink  *link
	cli, srv *adocnet.Conn
	fwd      *linkStats // sender → receiver
	back     *linkStats // acks
	srvDone  chan struct{}
}

func newBulk(e *env, bitsPerSec float64) (workload, error) {
	b := &bulk{e: e, rate: bitsPerSec, opts: adocnet.Defaults(), hello: datagen.ASCII(helloSize, e.seed*1000+999)}
	for v := range bulkVariants {
		for k, kind := range datagen.Kinds() {
			seed := e.seed*1000 + int64(v*10+k)
			b.msgs = append(b.msgs, datagen.ByKind(kind, bulkMsgSize, seed))
		}
	}
	return b, nil
}

// dialPair connects a client and a server link over loopback TCP and runs
// the adocnet handshake on both ends.
func dialPair(e *env, bitsPerSec float64, opts adocnet.Options, fwd, back *linkStats) (ln net.Listener, cli, srv *link, ca, sa *adocnet.Conn, err error) {
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	type accepted struct {
		l   *link
		c   *adocnet.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			ch <- accepted{err: err}
			return
		}
		l := newLink(raw, bitsPerSec, back, e)
		c, err := adocnet.Handshake(l, opts)
		if err != nil {
			raw.Close()
		}
		ch <- accepted{l, c, err}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err == nil {
		cli = newLink(raw, bitsPerSec, fwd, e)
		cli.attach = true
		ca, err = adocnet.Handshake(cli, opts)
		if err != nil {
			raw.Close()
		}
	}
	a := <-ch
	if err = errors.Join(err, a.err); err != nil {
		if ca != nil {
			ca.Close()
		}
		if a.c != nil {
			a.c.Close()
		}
		ln.Close()
		return nil, nil, nil, nil, nil, err
	}
	return ln, cli, a.l, ca, a.c, nil
}

// handshakeMs times the adocnet handshake on fresh link pairs of the given
// rate and returns the median in milliseconds.
func handshakeMs(e *env, bitsPerSec float64, opts adocnet.Options) float64 {
	var ms []float64
	for range 5 {
		t0 := time.Now()
		ln, _, _, ca, sa, err := dialPair(e, bitsPerSec, opts, &linkStats{}, &linkStats{})
		if err != nil {
			continue
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
		ca.Close()
		sa.Close()
		ln.Close()
	}
	return p50(ms)
}

func (b *bulk) setUp() error {
	b.op = 0
	b.fwd, b.back = &linkStats{}, &linkStats{}
	var err error
	b.ln, b.cliLink, b.srvLink, b.cli, b.srv, err = dialPair(b.e, b.rate, b.opts, b.fwd, b.back)
	if err != nil {
		return err
	}
	b.srvDone = make(chan struct{})
	go b.serve()
	// Set-up ends with one small verified exchange; the first full-size
	// message, probe included, is warm-up.
	if _, err := b.send(0); err != nil {
		b.tearDown()
		return fmt.Errorf("hello: %w", err)
	}
	return nil
}

// body returns the message op carries: the hello for op 0, then the
// datagen messages in turn.
func (b *bulk) body(op int64) []byte {
	if op == 0 {
		return b.hello
	}
	return b.msgs[(op-1)%int64(len(b.msgs))]
}

func (b *bulk) tearDown() {
	b.cli.Close()
	b.srv.Close()
	b.ln.Close()
	<-b.srvDone
}

// serve is the receiving end: it checks every message against the bytes
// the sender used, in order, and acks each with its op id and a verdict.
func (b *bulk) serve() {
	defer close(b.srvDone)
	ack := make([]byte, hdrLen)
	for want := int64(0); ; want++ {
		cw := &checkWriter{body: b.body(want)}
		n, err := b.srv.ReceiveMessage(cw)
		if err != nil {
			return
		}
		op, parent := readHeader(cw.hdr[:])
		ok := cw.equal && op == want && n == int64(len(cw.body))
		if tr := b.e.tr.Load(); tr != nil && parent != 0 {
			tr.record(tr.id(), parent, op, "core.recv", cw.first, time.Now())
		}
		verdict := int64(0)
		if ok {
			verdict = 1
		}
		putHeader(ack, op, verdict)
		if _, err := b.srv.WriteMessage(ack); err != nil {
			return
		}
	}
}

// checkWriter compares a delivered message with the sender's buffer as
// it streams in: the header against nothing (it is parsed instead) and
// the body byte for byte.
type checkWriter struct {
	hdr   [hdrLen]byte
	body  []byte
	off   int
	equal bool
	first time.Time
}

func (c *checkWriter) Write(p []byte) (int, error) {
	if c.off == 0 {
		c.first = time.Now()
		c.equal = true
	}
	n := len(p)
	for len(p) > 0 && c.off < hdrLen {
		k := copy(c.hdr[c.off:], p)
		c.off += k
		p = p[k:]
	}
	if len(p) > 0 {
		end := c.off + len(p)
		if end > len(c.body) || !bytes.Equal(c.body[c.off:end], p) {
			c.equal = false
		}
		c.off = end
	}
	return n, nil
}

func (b *bulk) warmUp() error {
	for range bulkWarmOps {
		if _, err := b.once(); err != nil {
			return err
		}
	}
	return nil
}

func (b *bulk) drive(w *window, d time.Duration) error {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		lat, err := b.once()
		if err != nil {
			return err
		}
		if lat > 0 {
			w.add(lat, bulkMsgSize)
		}
	}
	return nil
}

// once sends the next message and waits for its ack.
func (b *bulk) once() (time.Duration, error) {
	b.op++
	return b.send(b.op)
}

// send sends op's message and waits for its ack. It returns the op's
// latency, 0 when the op failed verification, or an error when the
// connection broke.
func (b *bulk) send(op int64) (time.Duration, error) {
	b.e.begin()
	msg := b.body(op)
	tr := b.e.tr.Load()
	var root, call int64
	if tr != nil {
		root, call = tr.id(), tr.id()
		tr.attachLink(op, call)
	}
	// The header is the only part of a message the sender changes; the
	// receiver parses it rather than comparing it with this buffer.
	putHeader(msg, op, root)
	if b.e.tampers(op) {
		msg = tampered(msg)
	}
	deadline := time.Now().Add(b.e.opTimeout)
	b.cliLink.SetDeadline(deadline)
	b.srvLink.SetDeadline(deadline)

	t0 := time.Now()
	if _, err := b.cli.WriteMessage(msg); err != nil {
		b.e.fail("op %d: write: %v", op, err)
		return 0, err
	}
	t1 := time.Now()
	var ack bytes.Buffer
	if _, err := b.cli.ReceiveMessage(&ack); err != nil {
		b.e.fail("op %d: reading ack: %v", op, err)
		return 0, err
	}
	t2 := time.Now()
	if tr != nil {
		tr.attachLink(0, 0)
		tr.record(call, root, op, "core.write", t0, t1)
		tr.record(tr.id(), root, op, "core.ack", t1, t2)
		tr.record(root, 0, op, "op", t0, t2)
	}
	if ack.Len() != hdrLen {
		b.e.fail("op %d: ack of %d bytes", op, ack.Len())
		return 0, nil
	}
	gotOp, verdict := readHeader(ack.Bytes())
	if gotOp != op || verdict != 1 {
		b.e.fail("op %d: receiver saw a mismatch (ack op %d, verdict %d)", op, gotOp, verdict)
		return 0, nil
	}
	return t2.Sub(t0), nil
}

// tampered returns a copy of msg with one byte past the header changed.
func tampered(msg []byte) []byte {
	out := append([]byte(nil), msg...)
	out[hdrLen+(len(out)-hdrLen)/2] ^= 0x5a
	return out
}

func (b *bulk) wireBytes() int64 {
	return b.cli.CounterStats().WireSent + b.srv.CounterStats().WireSent
}

func (b *bulk) stats() adoc.Stats { return b.cli.Stats() }

func (b *bulk) links() []*linkStats { return []*linkStats{b.fwd, b.back} }

func (b *bulk) layers(w *window, tr *tracing, m map[string]float64) {
	m["core.write_ms"] = p50(tr.durations("core.write"))
	m["core.recv_ms"] = p50(tr.durations("core.recv"))
	m["adocnet.handshake_ms"] = handshakeMs(b.e, b.rate, b.opts)
}

func (b *bulk) codecSample() [][]byte { return b.msgs }
