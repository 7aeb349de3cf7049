// Command perfbench is the AdOC stack's benchmark. It drives the public
// API of each layer (the link, adocnet, the adoc engine and its adaptive
// controller and codecs, adocmux sessions and gateways, adocrpc) from one
// process over loopback TCP, verifies every delivered byte, and prints
// each metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload bulk-lan100 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run is a traced half between two untraced quarters; the metrics are the
// per-layer ones, taken from the traced half, plus the tracing overhead
// (traced half against the untraced quarters), and the span dump is
// written under --spans. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"adoc"
)

type def struct{ name, unit string }

// endToEndDefs are the metrics a user of the stack sees.
var endToEndDefs = []def{
	{"setup_s", "s"},
	{"goodput_MBps", "MB/s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"wire_ratio", "ratio"},
	{"cpu_ns_per_byte", "ns/B"},
	{"alloc_bytes_per_byte", "B/B"},
	{"heap_peak_MB", "MB"},
}

// layerDefs are the per-layer metrics of the traced run. A layer that a
// workload does not run through reports 0.
var layerDefs = []def{
	{"link.busy_frac", "frac"},
	{"link.bytes_per_write", "B"},
	{"link.write_block_ms_per_op", "ms"},
	{"adocnet.handshake_ms", "ms"},
	{"core.write_ms", "ms"},
	{"core.recv_ms", "ms"},
	{"core.queue_high_water", "packets"},
	{"core.small_msg_frac", "frac"},
	{"core.probe_bypass_frac", "frac"},
	{"core.self_ms_per_op", "ms"},
	{"adapt.level_mean", "level"},
	{"adapt.level0_frac", "frac"},
	{"adapt.entropy_bypass_frac", "frac"},
	{"adapt.divergences", "count"},
	{"adapt.pins", "count"},
	{"codec.lzf_MBps", "MB/s"},
	{"codec.deflate6_MBps", "MB/s"},
	{"codec.inflate_MBps", "MB/s"},
	{"codec.dict_us_per_block", "us"},
	{"codec.dict_allocs_per_block", "count"},
	{"adocrpc.call_ms", "ms"},
	{"adocrpc.handler_ms", "ms"},
	{"adocrpc.overhead_ms", "ms"},
	{"adocrpc.sessions", "count"},
	{"adocrpc.response_unchanged_frac", "frac"},
	{"adocrpc.self_ms_per_op", "ms"},
	{"adocmux.gw_forward_ms", "ms"},
	{"adocmux.gw_return_ms", "ms"},
	{"adocmux.tunnel_wire_ratio", "ratio"},
	{"adocmux.self_ms_per_op", "ms"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.goroutines_peak", "count"},
	{"bench.trace_overhead_goodput_frac", "frac"},
	{"bench.trace_overhead_p50_frac", "frac"},
}

// setupRounds is how many times a run builds its stack; setup_s is the
// median. A set-up takes a millisecond or less, and on a shared host its
// time moves with the host's load over spans of seconds. Half the rounds
// therefore run before warm-up and half after the measured window, each
// round setupGap after the last, so that a run's figure spans several
// seconds of host load instead of one instant.
const (
	setupRounds = 200
	setupGap    = 20 * time.Millisecond
)

// setUps builds the stack n times, setupGap apart, and returns each
// set-up's time in seconds. The last stack stays up when keep is set.
func setUps(wl workload, n int, keep bool) ([]float64, error) {
	var secs []float64
	for i := range n {
		if i > 0 {
			time.Sleep(setupGap)
		}
		t0 := time.Now()
		if err := wl.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if !keep || i < n-1 {
			wl.tearDown()
		}
	}
	return secs, nil
}

// workload is one traffic mix over one AdOC stack.
type workload interface {
	// setUp builds the stack and completes one small verified exchange.
	setUp() error
	// tearDown closes the stack and waits for its goroutines.
	tearDown()
	// warmUp runs untimed load so the controller, dictionaries and
	// caches settle before anything is measured.
	warmUp() error
	// drive runs the load for d, recording verified ops in w. It returns
	// an error when the stack broke and the run cannot go on.
	drive(w *window, d time.Duration) error
	// wireBytes returns the AdOC wire bytes carried so far, both ways.
	wireBytes() int64
	// stats returns the engine counters of the connection that carries
	// the workload's main direction.
	stats() adoc.Stats
	// links returns the link directions the workload runs over.
	links() []*linkStats
	// layers adds the workload's own per-layer metrics for window w.
	layers(w *window, tr *tracing, m map[string]float64)
	// codecSample returns the workload's buffers for the codec figures.
	codecSample() [][]byte
}

// env is what every layer of a run shares.
type env struct {
	seed      int64
	opTimeout time.Duration
	// tr is the span recorder; nil while the run is untraced.
	tr atomic.Pointer[tracing]
	// corruptEvery makes every link flip a byte each that many bytes.
	corruptEvery int64
	// tamperOp, when positive, is the id of an op whose payload the
	// sending side alters after the receiving side has fixed the bytes it
	// expects, so that the op arrives intact at the transport but with the
	// wrong content.
	tamperOp int64

	attempted, failed atomic.Int64
}

// begin counts an attempted op.
func (e *env) begin() { e.attempted.Add(1) }

// tampers reports whether op is the one whose payload is to be altered.
func (e *env) tampers(op int64) bool { return e.tamperOp > 0 && op == e.tamperOp }

// fail counts a failed op (error, timeout or byte mismatch) and reports
// the first few on stderr.
func (e *env) fail(format string, args ...any) {
	if e.failed.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: op failed: "+format+"\n", args...)
	}
}

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	spanDir      string
	opTimeout    time.Duration
	corruptEvery int64
	tamperOp     int64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// notes are the human-readable lines printed before the JSON.
	notes []string
}

// workloads maps each workload to its constructor and the percentile its
// lat_tail_ms reports. It is fixed per workload so that runs never report
// different percentiles; README.md gives the samples beyond it at a 30 s
// run's op count.
var workloads = map[string]struct {
	build func(*env) (workload, error)
	tail  float64
}{
	"bulk-lan100":   {func(e *env) (workload, error) { return newBulk(e, lan100) }, 0.75},
	"bulk-loopback": {func(e *env) (workload, error) { return newBulk(e, 0) }, 0.99},
	"rpc-lan100":    {newRPC, 0.95},
	"proxy-lan100":  {newProxy, 0.95},
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "seed all inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&o.spanDir, "spans", filepath.Join(".bench_build", "spans"), "directory for span dumps")
	flag.Parse()
	o.trace = trace == 1
	o.opTimeout = 30 * time.Second
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !r.Correct {
		os.Exit(1)
	}
}

// run executes one workload run. An error means no result could be
// produced at all; a run whose ops failed returns a result with Correct
// false.
func run(o options) (*result, error) {
	spec, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	e := &env{seed: o.seed, opTimeout: o.opTimeout, corruptEvery: o.corruptEvery, tamperOp: o.tamperOp}
	wl, err := spec.build(e)
	if err != nil {
		return nil, err
	}

	setups, err := setUps(wl, setupRounds/2, true)
	if err != nil {
		return nil, err
	}

	r := &result{Metrics: map[string]metricValue{}}
	fatal := wl.warmUp()
	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		w, wire := measure(wl, d, &fatal)
		wl.tearDown()
		vals, note := endToEnd(w, wire, spec.tail)
		more, err := setUps(wl, setupRounds/2, false)
		if err != nil {
			return nil, err
		}
		vals["setup_s"] = p50(append(setups, more...))
		r.notes = append(r.notes, note)
		r.fill(endToEndDefs, vals)
	} else {
		defer wl.tearDown()
		// The untraced quarters come before and after the traced half, so
		// drift over the run (warm-up, heap growth) cancels out of the
		// overhead instead of being counted as the cost of tracing.
		before, wireB := measure(wl, d/4, &fatal)
		tr := newTracing()
		e.tr.Store(tr)
		traced, wireT := measure(wl, d/2, &fatal)
		e.tr.Store(nil)
		after, wireA := measure(wl, d/4, &fatal)
		b, noteB := endToEnd(before, wireB, spec.tail)
		a, noteA := endToEnd(after, wireA, spec.tail)
		with, noteT := endToEnd(traced, wireT, spec.tail)
		r.notes = append(r.notes, "untraced first quarter: "+noteB, "traced half:            "+noteT,
			"untraced last quarter:  "+noteA)
		base := map[string]float64{}
		for _, k := range []string{"goodput_MBps", "lat_p50_ms"} {
			base[k] = (b[k] + a[k]) / 2
		}
		vals := map[string]float64{}
		if fatal == nil {
			vals = layerMetrics(wl, traced, tr)
			wl.layers(traced, tr, vals)
			codecLayers(wl.codecSample(), vals)
		}
		vals["bench.trace_overhead_goodput_frac"] = frac(base["goodput_MBps"]-with["goodput_MBps"], base["goodput_MBps"])
		vals["bench.trace_overhead_p50_frac"] = frac(with["lat_p50_ms"]-base["lat_p50_ms"], base["lat_p50_ms"])
		path := filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.dump(path, o.workload, o.seed); err != nil {
			return nil, fmt.Errorf("writing span dump: %w", err)
		}
		r.notes = append(r.notes, "span dump: "+path)
		r.fill(layerDefs, vals)
	}
	if fatal != nil {
		e.fail("stack broke: %v", fatal)
	}
	r.Attempted, r.Failed = e.attempted.Load(), e.failed.Load()
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.notes = append(r.notes, fmt.Sprintf("%-36s %14.6g %s  (%d of %d ops)", "fail_frac",
		frac(float64(r.Failed), float64(r.Attempted)), "frac", r.Failed, r.Attempted))
	return r, nil
}

// measure opens a window, drives the workload for d unless an earlier
// phase already broke the stack, and closes the window. It returns the
// window and the AdOC wire bytes carried during it.
func measure(wl workload, d time.Duration, fatal *error) (*window, int64) {
	wire0 := wl.wireBytes()
	w := openWindow(d)
	w.statsAt, w.linkAt = wl.stats(), linkSnapshots(wl)
	if *fatal == nil {
		*fatal = wl.drive(w, d)
	}
	w.close()
	w.statsEnd, w.linkEnd = wl.stats(), linkSnapshots(wl)
	return w, wl.wireBytes() - wire0
}

func linkSnapshots(wl workload) map[*linkStats]linkSnapshot {
	m := map[*linkStats]linkSnapshot{}
	for _, ls := range wl.links() {
		m[ls] = ls.snapshot()
	}
	return m
}

func (r *result) fill(defs []def, vals map[string]float64) {
	for _, d := range defs {
		v := vals[d.name]
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		r.notes = append(r.notes, fmt.Sprintf("%-36s %14.6g %s", d.name, v, d.unit))
	}
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the user-visible metrics of window w that carried
// wire AdOC bytes, and a line naming the tail percentile and sample count.
func endToEnd(w *window, wire int64, tailQ float64) (map[string]float64, string) {
	secs := w.seconds()
	payload := float64(w.payload)
	n := len(w.lat)
	tail, how := w.tail(tailQ)
	v := map[string]float64{
		"goodput_MBps":         payload / secs / 1e6,
		"ops_per_s":            float64(n) / secs,
		"lat_p50_ms":           p50(w.lat),
		"lat_tail_ms":          tail,
		"wire_ratio":           frac(float64(wire), payload),
		"cpu_ns_per_byte":      frac(float64(w.p1.cpuNs-w.p0.cpuNs), payload),
		"alloc_bytes_per_byte": frac(float64(w.p1.allocBytes-w.p0.allocBytes), payload),
		"heap_peak_MB":         float64(w.heapPeak) / 1e6,
	}
	scope := "over the whole window"
	if sl := w.slices(); sl != nil {
		scope = fmt.Sprintf("as medians over %d time slices", len(sl))
		per := map[string][]float64{}
		for _, s := range sl {
			b := float64(s.payload)
			per["goodput_MBps"] = append(per["goodput_MBps"], b/s.secs/1e6)
			per["ops_per_s"] = append(per["ops_per_s"], float64(len(s.lat))/s.secs)
			per["lat_p50_ms"] = append(per["lat_p50_ms"], p50(s.lat))
			per["cpu_ns_per_byte"] = append(per["cpu_ns_per_byte"], frac(float64(s.cpuNs), b))
			per["alloc_bytes_per_byte"] = append(per["alloc_bytes_per_byte"], frac(float64(s.alloc), b))
		}
		for k, xs := range per {
			v[k] = p50(xs)
		}
	}
	how += "; rates, per-byte figures and lat_p50_ms " + scope
	lat := append([]float64(nil), w.lat...)
	note := fmt.Sprintf("%s; %d ops over %.3f s; ms at p90 %.4g, p99 %.4g, p99.9 %.4g, max %.4g",
		how, n, secs, quantile(lat, 0.9), quantile(lat, 0.99), quantile(lat, 0.999), quantile(lat, 1))
	return v, note
}

// layerMetrics computes the per-layer metrics every workload shares: the
// link, the engine and controller counters, the runtime, and the self
// time of each layer's spans.
func layerMetrics(wl workload, w *window, tr *tracing) map[string]float64 {
	m := map[string]float64{}
	ops := float64(len(w.lat))
	secs := w.seconds()

	// Link and engine counters are cumulative, so the window's share is
	// the difference between the snapshots taken when it opened and closed.
	var tot linkSnapshot
	busy := 0.0
	for _, ls := range wl.links() {
		s := w.linkEnd[ls].sub(w.linkAt[ls])
		tot.writes += s.writes
		tot.bytes += s.bytes
		tot.writeNs += s.writeNs
		busy = max(busy, float64(s.writeNs)/1e9/secs)
	}
	m["link.busy_frac"] = busy
	m["link.bytes_per_write"] = frac(float64(tot.bytes), float64(tot.writes))
	m["link.write_block_ms_per_op"] = frac(float64(tot.writeNs)/1e6, ops)

	s0, s1 := w.statsAt, w.statsEnd
	msgs := float64(s1.MsgsSent - s0.MsgsSent)
	m["core.queue_high_water"] = float64(s1.QueueHighWater)
	m["core.small_msg_frac"] = frac(float64(s1.SmallSent-s0.SmallSent), msgs)
	m["core.probe_bypass_frac"] = frac(float64(s1.ProbeBypasses-s0.ProbeBypasses), msgs)
	var bufs, levelSum, level0 float64
	for l, c := range s1.Controller.LevelCount {
		if l < len(s0.Controller.LevelCount) {
			c -= s0.Controller.LevelCount[l]
		}
		bufs += float64(c)
		levelSum += float64(l) * float64(c)
		if l == 0 {
			level0 = float64(c)
		}
	}
	m["adapt.level_mean"] = frac(levelSum, bufs)
	m["adapt.level0_frac"] = frac(level0, bufs)
	m["adapt.entropy_bypass_frac"] = frac(float64(s1.Controller.EntropyBypasses-s0.Controller.EntropyBypasses), bufs)
	m["adapt.divergences"] = float64(s1.Controller.Divergences - s0.Controller.Divergences)
	m["adapt.pins"] = float64(s1.Controller.Pins - s0.Controller.Pins)

	cycles := float64(w.p1.gcCycles - w.p0.gcCycles)
	m["runtime.gc_cycles_per_s"] = cycles / secs
	m["runtime.gc_pause_ms"] = frac(float64(w.p1.pauseNs-w.p0.pauseNs)/1e6, cycles)
	m["runtime.goroutines_peak"] = float64(w.goroutinesPeak)

	self, roots := tr.selfTimes()
	for _, layer := range []string{"core", "adocrpc", "adocmux"} {
		m[layer+".self_ms_per_op"] = frac(self[layer], float64(roots))
	}
	return m
}
