// The in-flight window (Options.Parallelism) of the one send pipeline and
// the one receive pipeline. The writer cuts a message into adaptation
// buffers and chooses each buffer's level at dispatch; the consumer cuts
// the incoming frames into groups. At a window of one each buffer or group
// is processed inline on that goroutine, exactly the paper's
// two-thread pipeline. Above one, up to Parallelism of them run as jobs on
// the process-wide WorkerPool, and the emission thread (or the consumer)
// takes the results back in dispatch order itself, so the wire stream and
// the delivered byte stream are the same at every window.
//
// Parallelism bounds the engine's in-flight buffer window — how many
// buffers it may have dispatched at once — not a private worker count:
// CPU concurrency across all engines is the shared pool's size.

package core

import (
	"fmt"
	"hash/adler32"
	"sync/atomic"
	"time"

	"adoc/internal/adapt"
	"adoc/internal/codec"
	"adoc/internal/core/bufpool"
	"adoc/internal/fifo"
	"adoc/internal/obs"
	"adoc/internal/wire"
)

// compJob is one adaptation buffer of the send pipeline: its pooled read
// buffer, the level chosen at dispatch and, once compressed, the entropy
// probe's verdict and the error. A pool job collects its wire-framed
// segments in segs and closes done when finished; at a window of one the
// segments go straight to the emission FIFO and done stays nil.
type compJob struct {
	buf      []byte
	raw      int
	level    codec.Level
	submitAt time.Time
	segs     segList
	class    contentClass
	err      error
	done     chan struct{}
}

// segList collects the segments of one buffer on a pool worker, counting
// each one into the shared pipeline backlog so the controller's occupancy
// signal covers packets that are compressed but not yet sent.
type segList struct {
	segs    []segment
	backlog *adapt.Backlog
}

func (l *segList) Push(s segment) error {
	l.segs = append(l.segs, s)
	l.backlog.Add(1)
	return nil
}

// compress classifies one adaptation buffer and compresses it at its
// dispatch-time level into dst, then releases the buffer. For sampled
// messages it records the buffer's queue wait (pool jobs only: submitAt to
// job start) and its compress span.
func (e *Engine) compress(j *compJob, data []byte, dst segDst, tc obs.TraceContext) {
	tr := e.opts.FlowTracer
	var start time.Time
	if tc.Sampled {
		start = tr.Now()
		if !j.submitAt.IsZero() {
			tr.Record(tc, 0, obs.StageQueue, j.submitAt, start.Sub(j.submitAt), j.raw, int(j.level))
		}
	}
	level, class := e.classifyBuffer(j.level, data)
	var scratch []byte
	if level == codec.LZF {
		scratch = bufpool.Get(e.opts.BufferSize)
	}
	j.class = class
	j.err = e.compressBufferAt(dst, level, data, scratch)
	if tc.Sampled {
		tr.Record(tc, 0, obs.StageCompress, start, tr.Now().Sub(start), j.raw, int(level))
	}
	if scratch != nil {
		bufpool.Put(scratch) // segments copied out of it already
	}
	bufpool.Put(j.buf)
}

// jobQueue is the emission thread's source above a window of one: the
// pool jobs in buffer order, Parallelism of them queued plus the one at
// the head. Pop hands out the packets of finished jobs in order, feeding
// each job's probe verdict to the controller and its raw size to the stats
// as it takes the job, and draining each packet from the backlog as the
// FIFO's Pop would. Between socket writes it takes every finished job
// ahead of the socket, up to limit packets — the emission FIFO's capacity —
// so on a slow link the writer runs ahead and the occupancy builds exactly
// as with the FIFO. A job's failure aborts the queue, so the writer stops;
// an abort drops the packets taken ahead, as the FIFO's Abort does.
type jobQueue struct {
	e       *Engine
	jobs    *fifo.Queue[*compJob]
	backlog *adapt.Backlog
	limit   int
	head    *compJob  // taken from jobs, not finished when last looked at
	ready   []segment // packets of finished jobs, in buffer order
	high    int
	aborted atomic.Pointer[error]
}

func (s *jobQueue) Pop() (segment, error) {
	if err := s.aborted.Load(); err != nil {
		return segment{}, *err
	}
	for len(s.ready) < s.limit {
		if took, err := s.take(false); err != nil {
			return segment{}, err
		} else if !took {
			break
		}
	}
	if len(s.ready) == 0 {
		if _, err := s.take(true); err != nil {
			return segment{}, err
		}
	}
	s.high = max(s.high, len(s.ready))
	seg := s.ready[0]
	s.ready = s.ready[1:]
	s.backlog.Add(-1)
	return seg, nil
}

// take moves the oldest job's packets into ready once it has finished,
// waiting for it when block is set; took is false when no job was ready.
func (s *jobQueue) take(block bool) (took bool, err error) {
	if s.head == nil {
		if block {
			if s.head, err = s.jobs.Pop(); err != nil {
				return false, err
			}
		} else if s.head, took = s.jobs.TryPop(); !took {
			return false, nil
		}
	}
	j := s.head
	if block {
		<-j.done
	} else {
		select {
		case <-j.done:
		default:
			return false, nil
		}
	}
	s.head = nil
	if j.err != nil {
		s.Abort(j.err)
		return false, j.err
	}
	s.e.noteContent(j.class)
	s.e.stats.rawSent.Add(int64(j.raw))
	s.ready = append(s.ready, j.segs.segs...)
	return true, nil
}

// Len is the packets compressed and not yet sent: with the jobs standing
// in for the FIFO, the backlog is the whole pipeline's occupancy.
func (s *jobQueue) Len() int        { return s.backlog.Len() }
func (s *jobQueue) CloseSend()      { s.jobs.CloseSend() }
func (s *jobQueue) Abort(err error) { s.aborted.Store(&err); s.jobs.Abort(err) }
func (s *jobQueue) HighWater() int  { return s.high }

// decJob is one assembled group of the receive pipeline: decoded inline at
// a window of one (done stays nil), by a pool worker above it (done is
// closed once data and err are set). doneAt, when traced, is the instant
// decoding finished; the gap until the consumer takes the group is the
// in-order delivery wait.
type decJob struct {
	g      completedGroup
	data   []byte
	err    error
	doneAt time.Time
	done   chan struct{}
}

// dispatchDecode starts decoding one assembled group: inline at a window of
// one, where the block is the assembler's reused buffer and is consumed
// before the next frame is fed; on the shared pool above it.
func (e *Engine) dispatchDecode(g completedGroup) *decJob {
	j := &decJob{g: g}
	if e.opts.Parallelism == 1 {
		e.decode(j)
		return j
	}
	j.done = make(chan struct{})
	e.pool.Submit(func() {
		e.decode(j)
		close(j.done)
	})
	return j
}

// wait reports whether j is decoded, blocking for it when block is set.
func (j *decJob) wait(block bool) bool {
	if j.done == nil {
		return true
	}
	if block {
		<-j.done
		return true
	}
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// decode expands one group, recording a decompress span against the
// stream's adopted (or pending) receive trace.
func (e *Engine) decode(j *decJob) {
	tr := e.opts.FlowTracer
	var t0 time.Time
	if tr.Enabled() {
		t0 = tr.Now()
	}
	j.data, j.err = e.decodeGroup(j.g)
	if tr.Enabled() && j.err == nil {
		j.doneAt = tr.Now()
		e.recordRecvSpan(obs.StageDecompress, t0, j.doneAt.Sub(t0), j.g.rawLen, int(j.g.level))
	}
}

// decodeGroup expands and verifies one assembled group. Dict groups name
// their dictionary by generation, so out-of-order decoding on the pool
// still pairs each group with the exact bytes it was compressed against;
// a generation this engine never installed is indistinguishable from
// corruption.
func (e *Engine) decodeGroup(g completedGroup) ([]byte, error) {
	var raw []byte
	var err error
	if g.dictOn {
		dict, ok := e.recvDicts.Get(g.dictGen)
		if !ok {
			return nil, fmt.Errorf("%w: group names uninstalled dictionary generation %d",
				codec.ErrCorrupt, g.dictGen)
		}
		raw, err = codec.DecompressDict(g.block, g.rawLen, dict)
	} else {
		raw, err = codec.Decompress(g.level, g.block, g.rawLen)
	}
	if err != nil {
		return nil, err
	}
	if adler32.Checksum(raw) != g.sum {
		return nil, wire.ErrChecksum
	}
	return raw, nil
}
