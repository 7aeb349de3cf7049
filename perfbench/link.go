package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's link layer: a net.Conn wrapper around loopback TCP that
// paces the bytes it sends with a token bucket and counts what it carries.
//
// It replaces internal/netsim on the paced workloads because netsim's
// reader busy-waits for each 8 KB packet's arrival time (sleepUntil). At
// 100 Mbit/s that spin costs about one of two cores, which the adaptive
// compressor then cannot use, so the benchmark would measure the
// simulator's CPU appetite instead of AdOC's. This pacer sleeps: the
// sender may run at most linkBurst ahead of the configured rate, and any
// further debt is paid with time.Sleep, never a spin.

const (
	// linkChunk is the largest write the pacer hands to the socket at
	// once, so one large Write is spread over time instead of landing in
	// the peer's buffer as a single burst.
	linkChunk = 16 << 10
	// linkBurst is how far ahead of the configured rate a sender may be
	// before it sleeps. It bounds both the burst a reader can see and the
	// number of sleeps per second.
	linkBurst = 2 * time.Millisecond
)

// linkStats counts one direction of a link.
type linkStats struct {
	writes  atomic.Int64
	bytes   atomic.Int64
	writeNs atomic.Int64 // time spent inside Write, pacing included
}

type linkSnapshot struct{ writes, bytes, writeNs int64 }

func (s *linkStats) snapshot() linkSnapshot {
	return linkSnapshot{s.writes.Load(), s.bytes.Load(), s.writeNs.Load()}
}

func (a linkSnapshot) sub(b linkSnapshot) linkSnapshot {
	return linkSnapshot{a.writes - b.writes, a.bytes - b.bytes, a.writeNs - b.writeNs}
}

// link is one endpoint of a benchmark link. Writes are serialized so the
// pacer's clock and the byte order on the socket agree.
type link struct {
	net.Conn
	rate  float64 // bytes per second; 0 sends at loopback speed
	stats *linkStats
	env   *env // its tracer, when set, receives a span per Write
	// attach makes this link's write spans children of the span the
	// benchmark named with tracing.attachLink; other links' writes are
	// connection-level.
	attach bool

	mu  sync.Mutex
	due time.Time // when the bytes sent so far finish at the paced rate

	// corruptEvery, when positive, flips one byte of the outgoing stream
	// every corruptEvery bytes; the benchmark's own tests use it to check
	// that delivered bytes are verified.
	corruptEvery int64
	sent         int64
}

func newLink(c net.Conn, bitsPerSec float64, st *linkStats, e *env) *link {
	return &link{Conn: c, rate: bitsPerSec / 8, stats: st, env: e, corruptEvery: e.corruptEvery}
}

func (l *link) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := time.Now()
	n := 0
	var err error
	for n < len(p) && err == nil {
		c := min(len(p)-n, linkChunk)
		if l.rate > 0 {
			l.pace(c)
		}
		var m int
		m, err = l.Conn.Write(l.maybeCorrupt(p[n : n+c]))
		n += m
	}
	end := time.Now()
	l.stats.writes.Add(1)
	l.stats.bytes.Add(int64(n))
	l.stats.writeNs.Add(int64(end.Sub(start)))
	if tr := l.env.tr.Load(); tr != nil {
		tr.linkWrite(start, end, l.attach)
	}
	return n, err
}

// pace charges n bytes to the token bucket and sleeps off any debt beyond
// linkBurst. Idle time is not banked: a link that was quiet starts again
// from the current instant, as a real link would.
func (l *link) pace(n int) {
	now := time.Now()
	if l.due.Before(now) {
		l.due = now
	}
	l.due = l.due.Add(time.Duration(float64(n) / l.rate * float64(time.Second)))
	if d := l.due.Sub(now) - linkBurst; d > 0 {
		time.Sleep(d)
	}
}

func (l *link) maybeCorrupt(b []byte) []byte {
	if l.corruptEvery <= 0 {
		return b
	}
	next := (l.sent/l.corruptEvery + 1) * l.corruptEvery
	l.sent += int64(len(b))
	if l.sent <= next {
		return b
	}
	out := append([]byte(nil), b...)
	out[len(b)-int(l.sent-next)] ^= 0x5a
	return out
}

// linkListener wraps accepted connections in links sharing one stats
// record, for servers that take a net.Listener.
type linkListener struct {
	net.Listener
	bitsPerSec float64
	stats      *linkStats
	env        *env
}

func (ll *linkListener) Accept() (net.Conn, error) {
	c, err := ll.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newLink(c, ll.bitsPerSec, ll.stats, ll.env), nil
}
