package adapt

import "sync/atomic"

// Backlog counts the packets of a sender pipeline that pool workers have
// produced and the emission thread has not yet taken.
//
// Paper Figure 2 drives the level from the occupancy n of the single FIFO
// between the compression thread and the emission thread. At a window of
// one that FIFO is the whole pipeline. Above one, buffers are compressed on
// a worker pool and their packets wait with their job until the emission
// thread takes them, so the backlog is the occupancy the controller reads:
// reading less would systematically under-count the work the network has
// not yet absorbed. Workers increment the backlog as each segment is
// produced; the emission thread decrements it as it takes each segment for
// the socket, as the FIFO's Pop would.
type Backlog struct {
	n atomic.Int64
}

// Add adjusts the backlog by delta packets (negative to drain).
func (b *Backlog) Add(delta int) {
	b.n.Add(int64(delta))
}

// Len returns the current backlog in packets, never negative: a transient
// negative value (decrement racing an increment) reads as empty rather than
// skewing the controller's delta.
func (b *Backlog) Len() int {
	n := b.n.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}
