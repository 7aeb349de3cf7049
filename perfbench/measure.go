package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"adoc"
)

// procCounters are the process-wide counters a window takes the difference of.
type procCounters struct {
	cpuNs      int64 // user+sys from getrusage
	allocBytes uint64
	gcCycles   uint64
	pauseNs    uint64
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		pauseNs:    ms.PauseTotalNs,
	}
}

// sampleEvery is the period of the heap and goroutine peak sampler.
const sampleEvery = 5 * time.Millisecond

// window is one measured interval: the ops completed in it, their
// latencies and payload, and the process counters at its edges.
type window struct {
	start   time.Time
	elapsed time.Duration
	p0, p1  procCounters

	mu      sync.Mutex
	lat     []float64 // milliseconds
	at      []float64 // completion of each op, seconds since start
	sizes   []int64   // payload of each op
	payload int64

	plan time.Duration
	cuts []cut // slice boundaries, written by the sampler until close

	// heapPeak is the peak live heap less the window's own op record.
	heapPeak, goroutinesPeak uint64
	stop, done               chan struct{}

	// Layer counters when the window opened and when it closed.
	statsAt, statsEnd adoc.Stats
	linkAt, linkEnd   map[*linkStats]linkSnapshot
}

// A window is cut into rateSlices equal time slices. When every slice
// completes at least minSliceOps ops, the rate, per-byte and median
// figures are medians over the slices, so a burst of interference from
// outside the process moves one slice rather than the figure.
const (
	rateSlices  = 10
	minSliceOps = 50
)

// cut is the process counters at a slice boundary.
type cut struct {
	at float64 // seconds since the window opened
	p  procCounters
}

// openWindow opens a window planned to last plan.
func openWindow(plan time.Duration) *window {
	w := &window{stop: make(chan struct{}), done: make(chan struct{}), plan: plan}
	w.p0 = readProc()
	w.start = time.Now()
	w.cuts = []cut{{0, w.p0}}
	go w.sample()
	return w
}

func (w *window) sample() {
	defer close(w.done)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/sched/goroutines:goroutines"}}
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	for {
		metrics.Read(s)
		// The window's own op record is the benchmark's, not the stack's.
		w.mu.Lock()
		record := uint64(cap(w.lat)+cap(w.at)+cap(w.sizes)) * 8
		w.mu.Unlock()
		if live := s[0].Value.Uint64(); live > record {
			w.heapPeak = max(w.heapPeak, live-record)
		}
		w.goroutinesPeak = max(w.goroutinesPeak, s[1].Value.Uint64())
		if next := w.plan * time.Duration(len(w.cuts)) / rateSlices; len(w.cuts) < rateSlices && time.Since(w.start) >= next {
			p := readProc()
			w.cuts = append(w.cuts, cut{time.Since(w.start).Seconds(), p})
		}
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
	}
}

// add records one verified op: its latency and the payload bytes it
// delivered, requests and responses together.
func (w *window) add(lat time.Duration, payload int64) {
	w.mu.Lock()
	w.lat = append(w.lat, float64(lat)/1e6)
	w.at = append(w.at, time.Since(w.start).Seconds())
	w.sizes = append(w.sizes, payload)
	w.payload += payload
	w.mu.Unlock()
}

func (w *window) close() {
	close(w.stop)
	<-w.done
	w.elapsed = time.Since(w.start)
	w.p1 = readProc()
	w.cuts = append(w.cuts, cut{w.elapsed.Seconds(), w.p1})
}

// sliceStat is one slice's share of a window.
type sliceStat struct {
	secs    float64
	payload int64
	lat     []float64
	cpuNs   int64
	alloc   uint64
}

// slices splits the window's ops and counters at its cuts. It returns nil
// when a slice completed fewer than minSliceOps ops.
func (w *window) slices() []sliceStat {
	out := make([]sliceStat, len(w.cuts)-1)
	for i := range out {
		a, b := w.cuts[i], w.cuts[i+1]
		out[i] = sliceStat{secs: b.at - a.at, cpuNs: b.p.cpuNs - a.p.cpuNs, alloc: b.p.allocBytes - a.p.allocBytes}
	}
	for i, t := range w.at {
		j := sort.Search(len(out), func(j int) bool { return w.cuts[j+1].at >= t })
		j = min(j, len(out)-1)
		out[j].lat = append(out[j].lat, w.lat[i])
		out[j].payload += w.sizes[i]
	}
	for _, s := range out {
		if len(s.lat) < minSliceOps {
			return nil
		}
	}
	return out
}

func (w *window) seconds() float64 { return w.elapsed.Seconds() }

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// tail returns lat_tail_ms, the q-quantile of w's latencies, and a line
// saying how many samples lie beyond it.
func (w *window) tail(q float64) (float64, string) {
	v := quantile(append([]float64(nil), w.lat...), q)
	return v, fmt.Sprintf("lat_tail_ms is p%g of %d samples, %d beyond it", q*100, len(w.lat), beyond(w.lat, v))
}

// beyond counts the samples greater than v.
func beyond(xs []float64, v float64) int {
	c := 0
	for _, x := range xs {
		if x > v {
			c++
		}
	}
	return c
}

// p50 returns the median of xs without reordering the caller's slice.
func p50(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
