package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded only by the benchmark, around its own calls into each
// layer. The root of every tree is the "op" span; a child is named
// "<layer>.<call>" and carries its op's id. Server-side code learns the op
// id and its parent span id from the payload header, so handler and
// backend spans join the op that caused them. Spans stay in memory and are
// written out once the run ends.

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Op     int64  `json:"op"`     // 0 for connection-level work no single op owns
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// maxDumpSpans caps the spans written to the dump file; the self-time
// figures always use every recorded span.
const maxDumpSpans = 100000

type tracing struct {
	base   time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// Link writes happen on the engine's writer goroutine. On the
	// single-flow workloads the benchmark names the span they belong to
	// before each call; elsewhere they stay connection-level (0).
	linkParent, linkOp atomic.Int64
}

func newTracing() *tracing { return &tracing{base: time.Now()} }

func (t *tracing) id() int64 { return t.nextID.Add(1) }

// record stores a finished span under an id taken from t.id(), so children
// recorded earlier can already name it as their parent.
func (t *tracing) record(id, parent, op int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracing) linkWrite(start, end time.Time, attach bool) {
	var parent, op int64
	if attach {
		parent, op = t.linkParent.Load(), t.linkOp.Load()
	}
	t.record(t.id(), parent, op, "link.write", start, end)
}

// attachLink makes subsequent link writes children of span id of op.
func (t *tracing) attachLink(op, id int64) {
	t.linkOp.Store(op)
	t.linkParent.Store(id)
}

// durations returns the durations in milliseconds of every span called name.
func (t *tracing) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, per layer, the summed self time in milliseconds of
// its spans: each span's duration minus the part of it its children
// cover. ops is the number of root "op" spans; they have no self time of
// their own, since the benchmark's layer spans cover each op end to end.
func (t *tracing) selfTimes() (perLayer map[string]float64, ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	perLayer = map[string]float64{}
	for _, s := range t.spans {
		if s.Name == "op" {
			ops++
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self := float64(s.End-s.Start) - covered(s, children[s.ID])
		perLayer[layer] += self / 1e6
	}
	return perLayer, ops
}

// covered returns how many nanoseconds of parent's interval the union of
// kids' intervals covers.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return float64(total)
}

// dump writes the spans as JSON to path, creating its directory.
func (t *tracing) dump(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Total    int    `json:"spans_total"`
		Spans    []span `json:"spans"`
	}{workload, seed, len(t.spans), t.spans[:min(len(t.spans), maxDumpSpans)]}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// byOp returns the duration in milliseconds of the span called name of
// each op.
func (t *tracing) byOp(name string) map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] = float64(s.End-s.Start) / 1e6
		}
	}
	return out
}
