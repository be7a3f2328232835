package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// renderInputs renders a workload's inputs at seed: the option list of
// a simulation workload, or platoond-mix's set-up and first batches.
func renderInputs(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	var jobs []simJob
	switch name {
	case matrixName:
		var err error
		if jobs, err = matrixJobs(seed); err != nil {
			t.Fatal(err)
		}
	case sweepName:
		jobs = sweepJobs(seed)
	case worldName:
		jobs = worldJobs(seed)
	case mixName:
		g := &mixGen{seed: seed}
		ops, err := g.prefill()
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 3; n++ {
			batch, err := g.batch(n)
			if err != nil {
				t.Fatal(err)
			}
			ops = append(ops, batch...)
		}
		for _, op := range ops {
			fmt.Fprintf(&buf, "%s %v %s %s %s %d\n", op.kind, op.twin, op.method, op.path, op.body, op.want)
		}
		return buf.Bytes()
	}
	for _, j := range jobs {
		if j.world != nil {
			fmt.Fprintf(&buf, "%s %+v\n", j.label, *j.world)
		} else {
			fmt.Fprintf(&buf, "%s %+v\n", j.label, *j.scen)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads() {
		a, b := renderInputs(t, wl.name, 42), renderInputs(t, wl.name, 42)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 42 rendered two different input lists", wl.name)
		}
		if bytes.Equal(a, renderInputs(t, wl.name, 43)) {
			t.Errorf("%s: seeds 42 and 43 rendered the same input list", wl.name)
		}
	}
}

func TestMixSequenceShape(t *testing.T) {
	g := &mixGen{seed: 5}
	if _, err := g.prefill(); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"new": 13, "get": 31, "evicted": 13, "bad": 8, "repeat": 191}
	for n := 0; n < 40; n++ {
		ops, err := g.batch(n)
		if err != nil {
			t.Fatal(err)
		}
		if !ops[0].twin || ops[0].kind != "new" {
			t.Fatalf("batch %d does not open with a twinned first-seen request", n)
		}
		kinds := map[string]int{}
		for _, op := range ops {
			kinds[op.kind]++
			if op.twin != (op.kind == "new") {
				t.Fatalf("batch %d: %s request with twin %v", n, op.kind, op.twin)
			}
		}
		if !maps.Equal(kinds, want) {
			t.Fatalf("batch %d holds %v, want %v", n, kinds, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		q  float64
		ok int // smallest accepted sample count
	}{{0.5, 20}, {0.75, 40}, {0.9, 100}, {0.99, 1000}} {
		if got := samplesFor(c.q); got != c.ok {
			t.Errorf("samplesFor(%g) = %d, want %d", c.q, got, c.ok)
		}
		if _, err := percentile(samples(c.ok-1), c.q); err == nil {
			t.Errorf("p%g of %d samples accepted; it leaves fewer than %d beyond", c.q*100, c.ok-1, minBeyond)
		}
		got, err := percentile(samples(c.ok), c.q)
		if err != nil {
			t.Fatalf("p%g of %d samples: %v", c.q*100, c.ok, err)
		}
		if got.N != c.ok {
			t.Errorf("p%g reports %d samples, want %d", c.q*100, got.N, c.ok)
		}
		if want := float64(c.ok - minBeyond); got.Value != want {
			t.Errorf("p%g of 1..%d = %g, want %g", c.q*100, c.ok, got.Value, want)
		}
	}
}

func TestFastestQuarter(t *testing.T) {
	for _, c := range []struct {
		wall []float64
		want []int
	}{
		{[]float64{5, 1, 4, 2, 3, 6, 7, 8}, []int{1, 3}},
		{[]float64{9, 1, 8, 2, 7, 3, 6, 4, 5}, []int{1, 3, 5}},
		{[]float64{3, 1, 2}, []int{1, 2}},
		{[]float64{4}, []int{0}},
	} {
		if got := fastestQuarter(c.wall); !slices.Equal(got, c.want) {
			t.Errorf("fastestQuarter(%v) = %v, want %v", c.wall, got, c.want)
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the metric table must
// agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name, Why string
	}
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, c := range []struct {
		kind       string
		emit, json []metricSpec
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer(), b.PerLayer}} {
		declared := map[string]metricSpec{}
		for _, s := range c.json {
			declared[s.Name] = s
		}
		for _, s := range c.emit {
			if !metricName.MatchString(s.Name) {
				t.Errorf("%s metric %q is not a valid metric name", c.kind, s.Name)
			}
			if d, ok := declared[s.Name]; !ok {
				t.Errorf("%s metric %s is emitted but not in BENCHMARK.json", c.kind, s.Name)
			} else if d != s {
				t.Errorf("%s metric %s: BENCHMARK.json says %+v, the benchmark %+v", c.kind, s.Name, d, s)
			}
			delete(declared, s.Name)
		}
		for name := range declared {
			t.Errorf("%s metric %s is in BENCHMARK.json but never emitted", c.kind, name)
		}
	}
	var names []string
	for _, wl := range workloads() {
		names = append(names, wl.name+": "+wl.why)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name+": "+w.Why)
	}
	if strings.Join(names, "\n") != strings.Join(declared, "\n") {
		t.Errorf("BENCHMARK.json workloads\n%s\ndiffer from the benchmark's\n%s",
			strings.Join(declared, "\n"), strings.Join(names, "\n"))
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// requires every output check to pass and the Chrome trace to parse.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about two minutes")
	}
	out := t.TempDir()
	for _, wl := range workloads() {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", wl.name, "--seed", "3", "--seconds", "2", "--trace", trace, "--out", out}
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("%s --trace %s: %v\n%s", wl.name, trace, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s --trace %s: result line: %v", wl.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s --trace %s: error rate %d/%d\n%s", wl.name, trace, rep.Failed, rep.Attempted, stderr.String())
			}
			specs := endToEnd
			if trace == "1" {
				specs = perLayer()
			}
			if len(rep.Metrics) != len(specs) {
				t.Errorf("%s --trace %s: %d metrics, want %d", wl.name, trace, len(rep.Metrics), len(specs))
			}
		}
		raw, err := os.ReadFile(filepath.Join(out, fmt.Sprintf("trace-%s-seed3.json", wl.name)))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: Chrome trace: %v", wl.name, err)
		}
		spans := 0
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" {
				spans++
			}
		}
		if spans < 3 {
			t.Errorf("%s: Chrome trace has %d spans", wl.name, spans)
		}
	}
}
