package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json parses, lists
// every workload the code runs except the one README.md says it leaves
// out, and names exactly the metrics, with units, that the code reports.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	names := []string{"bulk-loopback"} // left out: see README.md
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads plus bulk-loopback %v, code runs %v", names, want)
	}
	var e2e, layer []def
	for _, m := range f.EndToEnd {
		e2e = append(e2e, def{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range f.PerLayer {
		layer = append(layer, def{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEndDefs) {
		t.Errorf("BENCHMARK.json end_to_end %v, code reports %v", e2e, endToEndDefs)
	}
	if !slices.Equal(layer, layerDefs) {
		t.Errorf("BENCHMARK.json per_layer %v, code reports %v", layer, layerDefs)
	}
}

// checkPrinted checks that r carries every metric of defs with its unit,
// in the JSON object and in the human-readable lines.
func checkPrinted(t *testing.T, r *result, defs []def) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
		found := false
		for _, line := range r.notes {
			f := strings.Fields(line)
			if len(f) >= 3 && f[0] == d.name && f[2] == d.unit {
				found = true
			}
		}
		if !found {
			t.Errorf("metric %s is not printed with its unit", d.name)
		}
	}
	if _, err := json.Marshal(r); err != nil {
		t.Error(err)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each prints all its metrics and that the span dump parses.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			o := options{workload: name, seed: 3, seconds: 1, spanDir: dir, opTimeout: 20 * time.Second}
			r, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("untraced run: correct %v, %d of %d ops failed", r.Correct, r.Failed, r.Attempted)
			}
			checkPrinted(t, r, endToEndDefs)
			for _, d := range endToEndDefs {
				if r.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, r.Metrics[d.name].Value)
				}
			}

			o.trace = true
			r, err = run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Fatalf("traced run: %d of %d ops failed", r.Failed, r.Attempted)
			}
			checkPrinted(t, r, layerDefs)
			b, err := os.ReadFile(filepath.Join(dir, name+"-seed3.json"))
			if err != nil {
				t.Fatal(err)
			}
			var dump struct {
				Workload string `json:"workload"`
				Total    int    `json:"spans_total"`
				Spans    []span `json:"spans"`
			}
			if err := json.Unmarshal(b, &dump); err != nil {
				t.Fatalf("span dump: %v", err)
			}
			roots := 0
			for _, s := range dump.Spans {
				if s.Name == "op" {
					roots++
				}
			}
			if dump.Workload != name || dump.Total == 0 || roots == 0 {
				t.Errorf("span dump for %q: %d spans, %d ops", dump.Workload, dump.Total, roots)
			}
		})
	}
}

// TestCorruptLinkIsCaught flips bytes on the link under a bulk transfer
// and checks that the run counts failed ops and reports itself incorrect.
// A flip may land in framing, where it shows as an error or a timeout
// rather than as a mismatch; TestTamperedPayloadIsCaught covers the
// mismatch itself. The first flip lands past the small messages that end
// each set-up.
func TestCorruptLinkIsCaught(t *testing.T) {
	r, err := run(options{workload: "bulk-loopback", seed: 1, seconds: 1,
		opTimeout: 2 * time.Second, corruptEvery: 6 << 20, spanDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed == 0 {
		t.Fatalf("corrupting link went unnoticed: correct %v, %d of %d ops failed", r.Correct, r.Failed, r.Attempted)
	}
	if frac := float64(r.Failed) / float64(r.Attempted); frac <= 0 {
		t.Errorf("fail_frac %v, want > 0", frac)
	}
}

// TestTamperedPayloadIsCaught alters the payload of one op on every
// workload after the receiving side has fixed the bytes it expects. The
// op arrives intact at the transport, so only the byte comparison can
// catch it: exactly that op must fail, the run must go on and finish well
// before any op could time out, and it must report itself incorrect.
func TestTamperedPayloadIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 2, seconds: 0.5, spanDir: t.TempDir(),
				opTimeout: 60 * time.Second, tamperOp: 3}
			start := time.Now()
			r, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); took > o.opTimeout/2 {
				t.Fatalf("run took %v: the altered op may have timed out instead of failing its comparison", took)
			}
			if r.Correct || r.Failed != 1 || r.Attempted <= 3 {
				t.Fatalf("correct %v, %d of %d ops failed; want exactly the altered op to fail", r.Correct, r.Failed, r.Attempted)
			}
		})
	}
}
