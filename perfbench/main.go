// Command perfbench is platoonsec's benchmark. It runs one named
// workload for a fixed time, checks every output the program produces,
// and prints each metric by name with its unit, ending with a one-line
// JSON result:
//
//	perfbench --workload tableIII-matrix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced
// pass. With --trace 1 it reports per-layer metrics: it runs an
// untraced and a traced pass of the same batches, the layer probes,
// and writes the traced pass's spans as a Chrome trace-event file
// under --out. See README.md.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// Each run sets its workload up at least setupMinRepeats times, and
// again until setupMinTime has passed (at most setupMaxRepeats times);
// setup_s is the median. A set-up of a few milliseconds needs many
// repeats for a steady median; platoond-mix's 0.4 s set-up needs the
// minimum repeats, spread over seconds, to outlast a slow spell of
// the host.
const (
	setupMinRepeats = 11
	setupMaxRepeats = 100
	setupMinTime    = 2 * time.Second
)

// benchWorkers is the number of engine workers, HTTP clients and
// platoond in-flight slots, and the benchmark's GOMAXPROCS. It is one,
// not the CPU count: on a shared two-vCPU VM (Intel Xeon, the machine
// the bounds were set on) the two vCPUs intermittently share one
// physical core, which swings two-worker throughput by up to 2x for
// tens of seconds at a time. Even with one worker, GOMAXPROCS at two
// lets platoond's client and handler goroutines and the garbage
// collector hand work across the two vCPUs: over ten seeds,
// platoond-mix's set-up time spread 29% (quartile distance over the
// median) at two and 10% at one. One processor measures the program
// rather than its neighbours.
const benchWorkers = 1

// workload is one named benchmark workload.
type workload struct {
	name string
	why  string
	// tailQ is the percentile latency_tail_ms reports: the highest one
	// the workload's run reliably gives ten samples beyond.
	tailQ float64
	// vehicles is the platoon size the layer probes are shaped by.
	vehicles int
	// setup builds the workload's inputs and warms it up; the returned
	// value runs its passes and must be closed.
	setup func(b *bench) (runner, error)
}

// runner runs one set-up workload.
type runner interface {
	// pass runs batches until done says stop and returns what it
	// measured. tr is nil on untraced passes.
	pass(tr *tracer, done func(p *passResult, elapsed time.Duration) bool) (*passResult, error)
	// layers derives the per-layer metrics from a traced pass.
	layers(traced *passResult, values map[string]float64) error
	// check runs the output checks that need the whole pass (for
	// platoond-mix, the direct library runs).
	check(p *passResult) error
	// digests returns the SHA-256 of every output of one batch (the
	// set-up requests, for platoond-mix), for pinned.json.
	digests() ([]string, error)
	close() error
}

// passResult is one pass's measurements.
type passResult struct {
	batches   int
	batchWall []float64 // seconds per batch
	// scaledWall is each batch's time at the calibration kernel's
	// reference speed (calib.go), in seconds: its runs' scaled times
	// for a simulation workload, its scaled wall for platoond-mix.
	scaledWall []float64
	vehSec     []float64   // simulated vehicle-seconds per batch
	ops        []float64   // operations per batch
	allocBytes []float64   // bytes allocated per batch
	latencyMS  [][]float64 // per batch, each operation's scaled latency
	busyFrac   []float64   // engine busy fraction per batch
	steals     []float64   // engine steals per batch
	detail     any         // workload-specific traced detail
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
func workloads() []workload {
	return []workload{matrixWorkload(), sweepWorkload(), worldWorkload(), mixWorkload()}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is one invocation: its settings and the output-check ledger.
type bench struct {
	seed    int64
	window  time.Duration
	workers int
	outDir  string
	log     io.Writer // progress lines, ahead of the result line
	repin   bool      // writing pinned.json: check against nothing pinned

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	failures  []string
}

// fail records one failed operation (the first few are kept for the
// log).
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.failMu.Lock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
	b.failMu.Unlock()
}

// pinnedSeed is the seed whose outputs pinned.json records.
const pinnedSeed = 1

//go:embed pinned.json
var pinnedJSON []byte

// pinnedFile is pinned.json: per workload, the SHA-256 of every
// output of one batch at pinnedSeed.
type pinnedFile struct {
	Seed    int64               `json:"seed"`
	Digests map[string][]string `json:"digests"`
}

// pinned returns the pinned digests for a workload, or nil when the
// seed is not the pinned one or the digests are being re-pinned.
func (b *bench) pinned(workload string) ([]string, error) {
	if b.seed != pinnedSeed || b.repin {
		return nil, nil
	}
	var p pinnedFile
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	return p.Digests[workload], nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func run(args []string, stdout, stderr io.Writer) error {
	start := time.Now()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchWorkers))
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (tableIII-matrix, tableII-sweep, world-ring, platoond-mix)")
	seed := fs.Int64("seed", pinnedSeed, "workload seed: simulation seeds and request sequences derive from it")
	seconds := fs.Float64("seconds", 10, "measured time per pass")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of an untraced pass; 1: per-layer metrics of a traced pass")
	out := fs.String("out", ".bench_out", "directory for the Chrome trace and the spill directory")
	pin := fs.String("pin", "", "write pinned digests for every workload at the pinned seed to FILE and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b := &bench{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		workers: benchWorkers, outDir: *out, log: stdout}
	if *pin != "" {
		return writePinned(b, *pin)
	}
	wl, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if b.window <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}

	// Set-up runs several times; the last one's state is measured. Each
	// set-up's time is scaled like every other timing (calib.go).
	var setups []float64
	var r runner
	calib := newCalibPool(1, 0)
	for len(setups) < setupMinRepeats || (time.Since(start) < setupMinTime && len(setups) < setupMaxRepeats) {
		if r != nil {
			if err := r.close(); err != nil {
				return err
			}
		}
		var err error
		_, scaled := calib.time(func() { r, err = wl.setup(b) })
		if err != nil {
			return fmt.Errorf("%s setup: %w", wl.name, err)
		}
		setups = append(setups, scaled/1e9)
	}
	fmt.Fprintf(stdout, "perfbench: %s seed %d, %d workers, GOMAXPROCS %d, %s, setup %.4gs (median of %d; first call at %.4gs)\n",
		wl.name, b.seed, b.workers, runtime.GOMAXPROCS(0), runtime.Version(), median(setups), len(setups), time.Since(start).Seconds())

	var values map[string]float64
	var specs []metricSpec
	var err error
	if *trace == 0 {
		specs = endToEnd
		values, err = measure(b, wl, r)
		if err == nil {
			values["setup_s"] = median(setups)
		}
	} else {
		specs = perLayer()
		values, err = measureLayers(b, wl, &r)
	}
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if b.failed.Load() > 0 {
		for _, f := range b.failures {
			fmt.Fprintln(stderr, "perfbench: output check failed:", f)
		}
	}
	rep, err := buildReport(specs, values, b.attempted.Load(), b.failed.Load())
	if err != nil {
		return err
	}
	printHuman(stdout, specs, rep)
	fmt.Fprintf(stdout, "  error_rate %d/%d\n", rep.Failed, rep.Attempted)
	return printReport(stdout, rep)
}

// measure runs the untraced pass and derives the end-to-end metrics.
// Every timing comes from the pass's fastest quarter of batches (see
// fastestQuarter), so the pass runs until that quarter holds enough
// latency samples for the workload's tail percentile.
func measure(b *bench, wl workload, r runner) (map[string]float64, error) {
	need := samplesFor(wl.tailQ)
	hardStop := 8*b.window + 30*time.Second
	p, err := r.pass(nil, func(p *passResult, elapsed time.Duration) bool {
		if elapsed >= hardStop {
			return true
		}
		return elapsed >= b.window && p.batches >= minBatches && len(p.fastLatency()) >= need
	})
	if err != nil {
		return nil, err
	}
	if err := r.check(p); err != nil {
		return nil, err
	}
	lat := p.fastLatency()
	p50, err := percentile(append([]float64(nil), lat...), 0.5)
	if err != nil {
		return nil, fmt.Errorf("latency_p50_ms: %w", err)
	}
	tail, err := percentile(append([]float64(nil), lat...), wl.tailQ)
	if err != nil {
		return nil, fmt.Errorf("latency_tail_ms: %w", err)
	}
	var wall, vehSec, ops float64
	fast := fastestQuarter(p.scaledWall)
	for _, i := range fast {
		wall += p.scaledWall[i]
		vehSec += p.vehSec[i]
		ops += p.ops[i]
	}
	rawRate, slowdown := make([]float64, p.batches), make([]float64, p.batches)
	for i := range rawRate {
		rawRate[i] = p.ops[i] / p.batchWall[i]
		slowdown[i] = p.batchWall[i] / p.scaledWall[i]
	}
	fmt.Fprintf(b.log, "  %d batches, the fastest %d timed: %d latency samples (p50 and p%g); unscaled median %.4g ops/s; host slowdown %.3g-%.3g\n",
		p.batches, len(fast), tail.N, wl.tailQ*100, median(rawRate), slices.Min(slowdown), slices.Max(slowdown))
	return map[string]float64{
		"sim_veh_s_per_s": vehSec / wall,
		"req_per_s":       ops / wall,
		"latency_p50_ms":  p50.Value,
		"latency_tail_ms": tail.Value,
		"alloc_mb":        median(p.allocBytes) / 1e6,
		"peak_rss_mb":     peakRSSMB(),
	}, nil
}

// fastLatency returns the latency samples of the pass's fastest
// quarter of batches.
func (p *passResult) fastLatency() []float64 {
	var lat []float64
	for _, i := range fastestQuarter(p.scaledWall) {
		lat = append(lat, p.latencyMS[i]...)
	}
	return lat
}

// measureLayers runs an untraced pass over half the window, a traced
// pass over the same number of batches, and the layer probes, and
// writes the Chrome trace. A workload whose traced pass needs a fresh
// set-up (platoond-mix: a fresh server, so its counters start clean)
// replaces *r.
func measureLayers(b *bench, wl workload, r *runner) (map[string]float64, error) {
	plain, err := (*r).pass(nil, func(p *passResult, elapsed time.Duration) bool {
		return p.batches >= 2 && elapsed >= b.window/2
	})
	if err != nil {
		return nil, err
	}
	if err := (*r).check(plain); err != nil {
		return nil, err
	}
	if wl.name == mixName {
		if err := (*r).close(); err != nil {
			return nil, err
		}
		if *r, err = wl.setup(b); err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
	}
	tr := newTracer(b.workers)
	t0 := time.Now()
	traced, err := (*r).pass(tr, func(p *passResult, _ time.Duration) bool { return p.batches >= plain.batches })
	if err != nil {
		return nil, err
	}
	tr.add(0, wl.name, "workload", 0, t0, time.Now(), map[string]any{"seed": b.seed, "batches": traced.batches})
	if err := (*r).check(traced); err != nil {
		return nil, err
	}
	values := map[string]float64{
		"engine.busy_frac":          median(traced.busyFrac),
		"engine.steals":             median(traced.steals),
		"bench.trace_overhead_frac": median(traced.scaledWall)/median(plain.scaledWall) - 1,
	}
	if err := (*r).layers(traced, values); err != nil {
		return nil, err
	}
	if err := runProbes(tr, wl.vehicles, b.outDir, values); err != nil {
		return nil, err
	}
	path := filepath.Join(b.outDir, fmt.Sprintf("trace-%s-seed%d.json", wl.name, b.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "  %d+%d batches; Chrome trace: %s\n", plain.batches, traced.batches, path)
	return values, nil
}

// peakRSSMB is the process's peak resident set in MB. Each run is its
// own process, so no other workload's memory is in it.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// writePinned records every workload's batch digests at the pinned
// seed.
func writePinned(b *bench, path string) error {
	b.seed, b.repin = pinnedSeed, true
	p := pinnedFile{Seed: pinnedSeed, Digests: map[string][]string{}}
	for _, wl := range workloads() {
		r, err := wl.setup(b)
		if err != nil {
			return fmt.Errorf("%s setup: %w", wl.name, err)
		}
		d, err := r.digests()
		if cerr := r.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		p.Digests[wl.name] = d
	}
	if n := b.failed.Load(); n > 0 {
		return fmt.Errorf("%d operations failed while pinning: %v", n, b.failures)
	}
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
