package core

import (
	"bytes"
	"fmt"
	"hash/adler32"
	"io"
	"sync"
	"time"

	"adoc/internal/adapt"
	"adoc/internal/codec"
	"adoc/internal/core/bufpool"
	"adoc/internal/fifo"
	"adoc/internal/obs"
	"adoc/internal/wire"
)

// segment is one FIFO item: pre-framed wire bytes plus the bookkeeping the
// emission thread needs to attribute bandwidth to compression levels.
type segment struct {
	data       []byte
	groupStart bool
	groupEnd   bool
	level      codec.Level
	groupRaw   int // raw payload of the whole group; set on the end segment
	groupWire  int // wire bytes of the whole group; set on the end segment
}

// message is one send request: the payload in memory (p) or streamed
// from r (size bytes; size < 0 means until EOF), its level bounds, and its
// flow-trace context.
type message struct {
	p        []byte
	r        io.Reader
	size     int64
	min, max codec.Level
	tc       obs.TraceContext
}

// WriteMessage sends p as one AdOC message at the engine's level bounds.
// It returns the number of bytes that hit the wire (framing included) —
// the value adoc_write reports through slen. On success the entire p was
// sent, matching the write system-call contract the library preserves.
func (e *Engine) WriteMessage(p []byte) (wireN int64, err error) {
	return e.WriteMessageLevels(p, e.opts.MinLevel, e.opts.MaxLevel)
}

// WriteMessageLevels is WriteMessage with per-call level bounds
// (adoc_write_levels): min > 0 forces compression, max == 0 disables it.
func (e *Engine) WriteMessageLevels(p []byte, min, max codec.Level) (int64, error) {
	return wireOnly(e.send(message{p: p, min: min, max: max}))
}

// WriteMessageTC is WriteMessage carrying a flow-trace context: when tc
// is sampled (and the engine has a FlowTracer), every pipeline stage
// this message passes through records a span against tc — the entry
// point the mux session uses for sampled batches.
func (e *Engine) WriteMessageTC(p []byte, tc obs.TraceContext) (int64, error) {
	return wireOnly(e.send(message{p: p, min: e.opts.MinLevel, max: e.opts.MaxLevel, tc: tc}))
}

// WriteMessageFull is WriteMessage returning additionally the number of
// p's bytes confirmed delivered to the underlying writer — len(p) on
// success, and on failure the count an io.Writer must report: the payload
// of every group that fully reached the socket before the error. Conn's
// io.Writer adapter relies on this to honor the partial-write contract.
func (e *Engine) WriteMessageFull(p []byte) (accepted int, wireN int64, err error) {
	delivered, wireN, err := e.send(message{p: p, min: e.opts.MinLevel, max: e.opts.MaxLevel})
	return int(delivered), wireN, err
}

// SendMessage streams size bytes from r as one AdOC message; size < 0
// means unknown (read until EOF). It returns the raw bytes delivered —
// the whole message on success, and on failure the payload of every group
// that fully reached the socket — and the wire byte count: the pair
// adoc_send_file returns (file size) and outputs (slen). This is the
// adoc_send_file equivalent.
func (e *Engine) SendMessage(r io.Reader, size int64) (raw, wireN int64, err error) {
	return e.SendMessageLevels(r, size, e.opts.MinLevel, e.opts.MaxLevel)
}

// SendMessageLevels is SendMessage with per-call level bounds.
func (e *Engine) SendMessageLevels(r io.Reader, size int64, min, max codec.Level) (raw, wireN int64, err error) {
	return e.send(message{r: r, size: size, min: min, max: max})
}

func wireOnly(_, wireN int64, err error) (int64, error) { return wireN, err }

// send is the one write path under every exported write method. It
// validates the level bounds, serializes senders, and takes either the
// small fast path or the stream pipeline. delivered is the payload of
// every group that fully reached the socket: the whole message on
// success.
func (e *Engine) send(m message) (delivered, wireN int64, err error) {
	if !m.min.Valid() || !m.max.Valid() || m.min > m.max {
		return 0, 0, codec.ErrBadLevel
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.closed.Load() {
		return 0, 0, ErrClosed
	}
	if e.opts.FlowTracer == nil {
		m.tc = obs.TraceContext{}
	}
	e.sendTC = m.tc
	if m.r != nil && (m.size < 0 || (m.min == codec.MinLevel && m.size < int64(e.opts.SmallThreshold))) {
		// A source that may fit the small path, or of unknown size: read
		// up to SmallThreshold bytes to learn which path it takes.
		peek := bufpool.Get(e.opts.SmallThreshold)
		defer bufpool.Put(peek)
		if m.size >= 0 {
			peek = peek[:m.size]
		}
		n, rerr := io.ReadFull(m.r, peek)
		switch {
		case rerr == nil && m.size < 0:
			// More may follow: stream the peeked prefix, then the rest.
			m.r = io.MultiReader(bytes.NewReader(peek[:n]), m.r)
		case rerr == nil || (m.size < 0 && (rerr == io.EOF || rerr == io.ErrUnexpectedEOF)):
			m.p, m.r = peek[:n], nil
		default:
			return 0, 0, fmt.Errorf("adoc: reading source: %w", rerr)
		}
	}
	if m.r == nil {
		if m.min == codec.MinLevel && len(m.p) < e.opts.SmallThreshold {
			return e.writeSmall(m.p)
		}
		m.r, m.size = bytes.NewReader(m.p), int64(len(m.p))
	}
	return e.writeStream(m.r, m.size, m.min, m.max)
}

// writeSmall sends the no-pipeline fast path: one buffer, one system call,
// latency identical to a plain write (paper §5 "Small messages").
// accepted is the count of p's bytes confirmed delivered: len(p) on
// success, always 0 on error — a truncated KindSmall message is discarded
// whole by the receiver, so partially-written payload bytes were NOT
// delivered and must not be reported as consumed to an io.Writer caller.
// wireN still counts what actually hit the wire on every return path, so
// a partial write shows up in Stats.
func (e *Engine) writeSmall(p []byte) (accepted, wireN int64, err error) {
	msg := wire.AppendSmall(bufpool.Get(len(p) + wire.SmallOverhead)[:0], p)
	defer bufpool.Put(msg)
	tc := e.sendTC
	var t0 time.Time
	if tc.Sampled {
		t0 = e.opts.FlowTracer.Now()
	}
	n, err := e.rw.Write(msg)
	if tc.Sampled {
		tr := e.opts.FlowTracer
		tr.Record(tc, 0, obs.StageWire, t0, tr.Now().Sub(t0), len(msg), 0)
	}
	if err != nil {
		e.stats.wireSent.Add(int64(n))
		return 0, int64(n), err
	}
	e.stats.msgsSent.Add(1)
	e.stats.smallSent.Add(1)
	e.stats.rawSent.Add(int64(len(p)))
	e.stats.wireSent.Add(int64(len(msg)))
	return int64(len(p)), int64(len(msg)), nil
}

// chunkReader cuts a message source into adaptation buffers. remaining
// counts the bytes still owed (< 0: read until EOF); err is terminal —
// io.EOF once the message is complete, else the source's failure.
type chunkReader struct {
	r         io.Reader
	remaining int64
	err       error
}

// next fills buf, up to the bytes still owed, and returns the filled part.
// An empty result means the source is done; failure says how.
func (c *chunkReader) next(buf []byte) []byte {
	if c.remaining == 0 && c.err == nil {
		c.err = io.EOF
	}
	if c.err != nil {
		return nil
	}
	if c.remaining > 0 && c.remaining < int64(len(buf)) {
		buf = buf[:c.remaining]
	}
	n, err := io.ReadFull(c.r, buf)
	if c.remaining > 0 {
		c.remaining -= int64(n)
	}
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		c.err = io.EOF
		if c.remaining > 0 {
			c.err = fmt.Errorf("adoc: source ended %d bytes early: %w", c.remaining, io.ErrUnexpectedEOF)
		}
	case err != nil:
		c.err = fmt.Errorf("adoc: reading source: %w", err)
	}
	return buf[:n]
}

// more reports whether next may still return bytes.
func (c *chunkReader) more() bool { return c.err == nil && c.remaining != 0 }

// failure is the source's terminal error; nil after a clean end.
func (c *chunkReader) failure() error {
	if c.err == io.EOF {
		return nil
	}
	return c.err
}

// socketDst is the segDst of the writes that run on the caller thread with
// no emission thread behind them — stream header, probe, fast-link bypass,
// message end: each segment goes straight to the socket.
type socketDst struct {
	e         *Engine
	wire      int64 // bytes written, including those of a failed Write
	delivered int64 // raw payload of every group that fully reached the socket
}

func (d *socketDst) write(b []byte) error {
	n, err := d.e.rw.Write(b)
	d.wire += int64(n)
	return err
}

func (d *socketDst) Push(s segment) error {
	err := d.write(s.data)
	bufpool.Put(s.data)
	if err == nil && s.groupEnd {
		d.delivered += int64(s.groupRaw)
	}
	return err
}

// writeStream sends one stream message: header, optional probe, then
// either the raw bypass (fast link) or the adaptive pipeline. Caller holds
// wmu. delivered is the raw payload of every group that fully reached the
// socket (the basis of the io.Writer partial-write count); wireBytes
// counts everything written, and is folded into Stats on every return
// path — error or not — so a mid-stream failure cannot leave socket bytes
// unaccounted.
func (e *Engine) writeStream(src io.Reader, size int64, min, max codec.Level) (delivered, wireBytes int64, err error) {
	if err := e.ctrl.SetBounds(min, max); err != nil {
		return 0, 0, err
	}
	// The message's dictionary is pinned here, under wmu: SetSendDict only
	// affects messages that start after it, so every group of one message
	// references one generation and the in-band announcement ordering
	// (dictionary bytes ride an earlier message) holds.
	e.msgDict = e.snapshotSendDict()
	sock := &socketDst{e: e}
	defer func() {
		delivered += sock.delivered
		wireBytes += sock.wire
		e.stats.wireSent.Add(wireBytes)
	}()
	totalRaw := wire.UnknownTotal
	if size >= 0 {
		totalRaw = uint64(size)
	}
	if err := sock.write(wire.AppendStreamHeader(nil, totalRaw)); err != nil {
		return 0, 0, err
	}

	cr := &chunkReader{r: src, remaining: size}
	// Bandwidth probe (paper §5 "Fast Networks"): only when adaptation is
	// allowed to pick level 0 and the payload is large enough that the
	// probe prefix is guaranteed to exist.
	bypass := false
	if min == codec.MinLevel && !e.opts.DisableProbe &&
		(size >= int64(e.opts.SmallThreshold) || size < 0) {
		if bypass, err = e.probe(cr, sock); err != nil {
			return 0, 0, err
		}
	}
	if bypass {
		e.stats.probeBypasses.Add(1)
		err = e.sendRawBypass(cr, sock)
	} else {
		delivered, wireBytes, err = e.sendAdaptive(cr)
	}
	if err != nil {
		return delivered, wireBytes, err
	}
	if err := sock.write(wire.AppendMsgEnd(nil)); err != nil {
		return delivered, wireBytes, err
	}
	e.stats.msgsSent.Add(1)
	return delivered, wireBytes, nil
}

// probe sends the bandwidth-measurement prefix raw on the caller thread
// and reports whether the measured speed exceeds the fast cutoff, in
// which case the rest of the message goes out uncompressed too.
func (e *Engine) probe(cr *chunkReader, sock *socketDst) (bypass bool, err error) {
	buf := bufpool.Get(e.opts.ProbeSize)
	defer bufpool.Put(buf)
	chunk := cr.next(buf)
	if len(chunk) == 0 {
		return false, nil
	}
	start := e.opts.Clock.Now()
	if err := e.pushBlockGroup(sock, codec.MinLevel, chunk, chunk); err != nil {
		return false, err
	}
	dur := e.opts.Clock.Now().Sub(start)
	bps := float64(len(chunk)) / maxSeconds(dur)
	e.ctrl.RecordDelivery(codec.MinLevel, len(chunk), dur)
	e.stats.rawSent.Add(int64(len(chunk)))
	bypass = bps > e.opts.FastCutoffBps
	if e.opts.Trace.OnProbe != nil {
		e.opts.Trace.OnProbe(bps, bypass)
	}
	return bypass, nil
}

// maxSeconds avoids division by zero on clocks with coarse resolution.
func maxSeconds(d time.Duration) float64 {
	s := d.Seconds()
	if s <= 0 {
		return 1e-9
	}
	return s
}

// sendRawBypass sends the remainder of the message uncompressed on the
// caller thread — the Gbit fast path where "we send the remaining data
// uncompressed".
func (e *Engine) sendRawBypass(cr *chunkReader, sock *socketDst) error {
	buf := bufpool.Get(e.opts.BufferSize)
	defer bufpool.Put(buf)
	for chunk := cr.next(buf); len(chunk) > 0; chunk = cr.next(buf) {
		if err := e.pushBlockGroup(sock, codec.MinLevel, chunk, chunk); err != nil {
			return err
		}
		e.stats.rawSent.Add(int64(len(chunk)))
	}
	return cr.failure()
}

// emitResult is the emission thread's final report. rawDelivered is the
// raw payload of the groups whose bytes all reached the socket.
type emitResult struct {
	wireBytes    int64
	rawDelivered int64
	err          error
}

// sendAdaptive runs the paper's pipeline: the caller is the compression
// thread, a spawned goroutine the emission thread, and a bounded FIFO of
// packets sits in between. Parallelism is the in-flight window. At one the
// caller compresses each buffer itself, its packets streaming into the
// FIFO while DEFLATE runs. Above one it hands buffers to the shared
// WorkerPool and queues the jobs, in buffer order, for the emission
// thread, which takes each job's packets as soon as that job finishes —
// never waiting for the writer's next source read — so the wire keeps
// buffer order.
func (e *Engine) sendAdaptive(cr *chunkReader) (delivered, wireBytes int64, err error) {
	if !cr.more() {
		return 0, 0, cr.failure()
	}
	tc := e.sendTC
	tr := e.opts.FlowTracer
	var q *fifo.Queue[segment] // a window of one
	var jobs *jobQueue         // above it
	var src emitSource
	if e.opts.Parallelism == 1 {
		q = fifo.New[segment](e.opts.QueueCapacity)
		src = q
	} else {
		jobs = &jobQueue{e: e, jobs: fifo.New[*compJob](e.opts.Parallelism),
			backlog: &adapt.Backlog{}, limit: e.opts.QueueCapacity}
		src = jobs
	}
	res := make(chan emitResult, 1)
	go e.runEmitter(src, res, tc)

	// Every dispatched job finishes before the message returns: workers
	// read the message's dictionary, which the next message replaces.
	var inflight sync.WaitGroup
	var sendErr error
	for sendErr == nil {
		buf := bufpool.Get(e.opts.BufferSize)
		data := cr.next(buf)
		if len(data) == 0 {
			bufpool.Put(buf)
			sendErr = cr.failure()
			break
		}
		// The level is chosen here, against the whole-pipeline occupancy
		// (packets compressed and not yet sent), and travels with the
		// buffer.
		j := &compJob{buf: buf, raw: len(data), level: e.ctrl.LevelForNextBuffer(src.Len())}
		if q != nil {
			e.compress(j, data, q, tc)
			if sendErr = j.err; sendErr == nil {
				e.noteContent(j.class)
				e.stats.rawSent.Add(int64(j.raw))
			}
			continue
		}
		// The wait for an in-flight slot is the writer's enqueue stage;
		// the queue stage (submit to job start) is measured by the worker
		// against submitAt.
		var eq time.Time
		if tc.Sampled {
			eq = tr.Now()
		}
		j.segs.backlog = jobs.backlog
		j.done = make(chan struct{})
		if sendErr = jobs.jobs.Push(j); sendErr != nil {
			bufpool.Put(buf)
			break
		}
		if tc.Sampled {
			j.submitAt = tr.Now()
			tr.Record(tc, 0, obs.StageEnqueue, eq, j.submitAt.Sub(eq), j.raw, int(j.level))
		}
		inflight.Add(1)
		e.pool.Submit(func() {
			e.compress(j, data, &j.segs, tc)
			close(j.done)
			inflight.Done()
		})
	}
	inflight.Wait()

	if sendErr != nil {
		src.Abort(sendErr)
	} else {
		src.CloseSend()
	}
	r := <-res
	if hw := int64(src.HighWater()); hw > e.stats.queueHigh.Load() {
		e.stats.queueHigh.Store(hw)
	}
	if sendErr != nil {
		return r.rawDelivered, r.wireBytes, sendErr
	}
	return r.rawDelivered, r.wireBytes, r.err
}

// emitSource is what the emission thread drains: the packet FIFO at a
// window of one, the in-order job queue above it.
type emitSource interface {
	Pop() (segment, error)
	Len() int
	CloseSend()
	Abort(error)
	HighWater() int
}

// runEmitter is the emission thread: it drains its source onto the socket
// and measures per-group delivery time, feeding the divergence guard.
// The message's flow-trace context arrives as a parameter (captured
// under wmu at spawn), so a sampled message's wire spans need no shared
// state with the writer.
func (e *Engine) runEmitter(q emitSource, res chan<- emitResult, tc obs.TraceContext) {
	var wireBytes, rawDelivered int64
	var groupStart time.Time
	for {
		seg, err := q.Pop()
		if err == io.EOF {
			res <- emitResult{wireBytes, rawDelivered, nil}
			return
		}
		if err != nil {
			res <- emitResult{wireBytes, rawDelivered, err}
			return
		}
		if seg.groupStart {
			groupStart = e.opts.Clock.Now()
		}
		n, werr := e.rw.Write(seg.data)
		wireBytes += int64(n)
		if werr != nil {
			q.Abort(werr)
			res <- emitResult{wireBytes, rawDelivered, werr}
			return
		}
		if seg.groupEnd {
			rawDelivered += int64(seg.groupRaw)
			dur := e.opts.Clock.Now().Sub(groupStart)
			e.ctrl.RecordDelivery(seg.level, seg.groupRaw, dur)
			if tc.Sampled {
				e.opts.FlowTracer.Record(tc, 0, obs.StageWire, groupStart, dur, seg.groupWire, int(seg.level))
			}
			if e.opts.Trace.OnGroupSent != nil {
				e.opts.Trace.OnGroupSent(seg.level, seg.groupRaw, seg.groupWire, q.Len())
			}
		}
		// The frame's bytes are on the socket; recycle its buffer.
		bufpool.Put(seg.data)
	}
}

// segDst receives the wire-framed segments of a group: the emission FIFO
// at a window of one, a pool job's own list above it, or the socket itself
// for the probe and fast-link bypass.
type segDst interface {
	Push(segment) error
}

// contentClass is the entropy probe's verdict on one adaptation buffer,
// reported back to the controller separately from the compression work so
// feedback arrives in buffer order, not worker completion order.
type contentClass int8

const (
	// classUnknown: the probe did not run (bypass disabled).
	classUnknown contentClass = iota
	// classCompressible: worth compressing; ends any bypass run.
	classCompressible
	// classBypassed: incompressible and the controller wanted a codec —
	// the buffer ships raw instead.
	classBypassed
	// classIncompressible: incompressible but already at level 0 (the
	// bypass pin, or the controller's own choice); nothing to bypass,
	// and the content run persists.
	classIncompressible
)

// classifyBuffer runs the entropy probe on one adaptation buffer and
// returns the level it should actually be framed at plus its content
// class. The probe runs at every level — including 0 — because releasing
// a bypass run requires seeing compressible content while pinned at the
// minimum; skipping the probe there would make the pin permanent.
func (e *Engine) classifyBuffer(level codec.Level, chunk []byte) (codec.Level, contentClass) {
	// With compression negotiated off entirely the verdict could never
	// change anything — skip the probe, not just the bypass.
	if e.opts.DisableEntropyBypass || e.opts.MaxLevel == codec.MinLevel {
		return level, classUnknown
	}
	if codec.Incompressible(chunk) {
		if level != codec.MinLevel {
			return codec.MinLevel, classBypassed
		}
		return level, classIncompressible
	}
	return level, classCompressible
}

// noteContent feeds one buffer's probe verdict to the controller. The
// pipeline invokes it in buffer (stream) order, so the consecutive-bypass run the
// controller tracks matches what actually went on the wire.
func (e *Engine) noteContent(class contentClass) {
	switch class {
	case classBypassed:
		if e.ctrl.NoteEntropyBypass() {
			e.events.Publish(obs.Event{
				Type: obs.EventBypass, Conn: e.handle.ID(), Action: "pin",
			})
		}
	case classCompressible:
		if e.ctrl.NoteCompressibleContent() {
			e.events.Publish(obs.Event{
				Type: obs.EventBypass, Conn: e.handle.ID(), Action: "release",
			})
		}
	}
	// classIncompressible: the run persists without counting a bypass —
	// nothing was compressed and nothing was skipped.
}

// compressBufferAt handles one adaptation unit (≤ BufferSize bytes) at a
// level the caller already resolved (controller choice, possibly lowered
// to 0 by the entropy probe): compresses and pushes wire-framed packets
// into dst. It implements the incompressible-data guard by aborting
// DEFLATE buffers whose running ratio is poor and sending the remainder
// raw. scratch, when non-nil, is a caller-owned buffer reused for LZF
// blocks (the segments copy out of it before returning).
func (e *Engine) compressBufferAt(dst segDst, level codec.Level, chunk, scratch []byte) error {
	switch {
	case level == codec.MinLevel:
		return e.pushBlockGroup(dst, codec.MinLevel, chunk, chunk)
	case level == codec.LZF:
		blk, used, err := codec.CompressAppend(scratch, codec.LZF, chunk)
		if err != nil {
			return err
		}
		if used == codec.MinLevel {
			// Did not shrink: raw group plus the incompressible pin.
			e.ctrl.NotePacketRatio(codec.LZF, len(chunk), len(chunk))
			return e.pushBlockGroup(dst, codec.MinLevel, chunk, chunk)
		}
		e.ctrl.NotePacketRatio(used, len(chunk), len(blk))
		return e.pushBlockGroup(dst, used, blk, chunk)
	default:
		return e.pushFlateGroup(dst, level, chunk, e.msgDict)
	}
}

// pushBlockGroup frames a fully materialized group (raw or LZF block) into
// packet segments. raw is the uncompressed data (for the checksum).
func (e *Engine) pushBlockGroup(dst segDst, level codec.Level, block, raw []byte) error {
	p := newPacketizer(e, dst, level)
	if _, err := p.Write(block); err != nil {
		return err
	}
	return p.finish(len(raw), adler32.Checksum(raw))
}

// pushFlateGroup streams chunk through a DEFLATE compressor, checking the
// running ratio after every flush so incompressible data aborts the buffer
// early (paper §5 "Compressed and random data"). A non-nil d compresses
// against d's dictionary and stamps the group with d's generation so the
// receiver resolves the same dictionary before inflating.
func (e *Engine) pushFlateGroup(dst segDst, level codec.Level, chunk []byte, d *sendDict) error {
	p := newPacketizer(e, dst, level)
	var sw codec.StreamWriter
	var err error
	if d != nil {
		p.dict, p.dictGen = true, d.gen
		sw, err = codec.NewStreamWriterDict(level, p, d.data)
	} else {
		sw, err = codec.NewStreamWriter(level, p)
	}
	if err != nil {
		return err
	}
	fed := 0
	aborted := false
	for fed < len(chunk) {
		step := e.opts.FlushInterval
		if fed+step > len(chunk) {
			step = len(chunk) - fed
		}
		before := p.total
		if _, err := sw.Write(chunk[fed : fed+step]); err != nil {
			sw.Close()
			return err
		}
		if err := sw.Flush(); err != nil {
			sw.Close()
			return err
		}
		fed += step
		produced := p.total - before
		if e.ctrl.NotePacketRatio(level, step, produced) {
			aborted = true
			break
		}
	}
	if err := sw.Close(); err != nil {
		return err
	}
	if err := p.finish(fed, adler32.Checksum(chunk[:fed])); err != nil {
		return err
	}
	if aborted && fed < len(chunk) {
		// Remainder of the buffer goes out raw.
		rest := chunk[fed:]
		return e.pushBlockGroup(dst, codec.MinLevel, rest, rest)
	}
	return nil
}

// packetizer is an io.Writer that cuts a group's byte stream into
// packet-framed segments of at most PacketSize payload bytes.
type packetizer struct {
	e       *Engine
	dst     segDst
	level   codec.Level
	dict    bool   // open with a dict groupBegin frame
	dictGen uint32 // the generation it announces
	pending []byte
	first   bool
	total   int // compressed bytes accepted so far
	wire    int // wire bytes pushed so far (framing included)
	packets int
}

func newPacketizer(e *Engine, dst segDst, level codec.Level) *packetizer {
	return &packetizer{e: e, dst: dst, level: level, first: true,
		pending: bufpool.Get(e.opts.PacketSize)[:0]}
}

func (p *packetizer) Write(b []byte) (int, error) {
	n := len(b)
	p.total += n
	for len(b) > 0 {
		space := p.e.opts.PacketSize - len(p.pending)
		take := len(b)
		if take > space {
			take = space
		}
		p.pending = append(p.pending, b[:take]...)
		b = b[take:]
		if len(p.pending) == p.e.opts.PacketSize {
			if err := p.flushPacket(false, 0, 0); err != nil {
				return n - len(b), err
			}
		}
	}
	return n, nil
}

// flushPacket pushes the pending payload as one segment. When end is true
// the groupEnd frame (with rawLen and checksum) is glued onto the same
// segment so the group closes without an extra FIFO slot.
func (p *packetizer) flushPacket(end bool, rawLen int, sum uint32) error {
	if len(p.pending) == 0 && !end {
		return nil
	}
	// The frame buffer travels through the FIFO to the emission thread,
	// which recycles it after the socket write.
	frame := bufpool.Get(len(p.pending) + maxFrameOverhead)[:0]
	if p.first {
		if p.dict {
			frame = wire.AppendGroupBeginDict(frame, p.level, p.dictGen)
		} else {
			frame = wire.AppendGroupBegin(frame, p.level)
		}
	}
	if len(p.pending) > 0 {
		frame = wire.AppendPacket(frame, p.pending)
		p.packets++
	}
	if end {
		frame = wire.AppendGroupEnd(frame, rawLen, sum)
	}
	seg := segment{
		data:       frame,
		groupStart: p.first,
		groupEnd:   end,
		level:      p.level,
	}
	p.first = false
	p.pending = p.pending[:0]
	p.wire += len(frame)
	if end {
		seg.groupRaw = rawLen
		seg.groupWire = p.wire
	}
	if err := p.dst.Push(seg); err != nil {
		return err
	}
	if len(seg.data) > 0 {
		p.e.ctrl.NotePacketsSent(1)
	}
	return nil
}

// finish closes the group, emitting any partial packet plus the groupEnd
// frame, and releases the staging buffer.
func (p *packetizer) finish(rawLen int, sum uint32) error {
	err := p.flushPacket(true, rawLen, sum)
	bufpool.Put(p.pending)
	p.pending = nil
	return err
}

// maxFrameOverhead bounds the non-payload bytes a single segment can carry:
// a group-begin prefix (the dict form is the larger) plus packet framing
// plus a glued group-end tail.
const maxFrameOverhead = wire.FrameGroupBeginDictLen + wire.FramePacketOverhead + wire.FrameGroupEndLen
