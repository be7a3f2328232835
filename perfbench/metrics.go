package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"

	"platoonsec/internal/taxonomy"
)

// metricSpec is one reported metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// metricName is the shape every emitted metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// endToEnd are the untraced pass's metrics, reported for every
// workload. latency_tail_ms is the workload's tail percentile (see
// workload.tailQ).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"sim_veh_s_per_s", "veh-s/s", "higher"},
	{"req_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// mechanismKeys and attackKeys name the defense and attack metric
// families after the Table III and Table II registries.
func mechanismKeys() []string {
	var keys []string
	for _, m := range taxonomy.Mechanisms() {
		keys = append(keys, m.Key)
	}
	return keys
}

func attackKeys() []string {
	var keys []string
	for _, a := range taxonomy.Attacks() {
		keys = append(keys, a.Key)
	}
	return keys
}

// serviceStages are the request-lifecycle stages imported from
// GET /v1/traces.
var serviceStages = []string{"decode", "cache_lookup", "singleflight_wait", "queue_wait", "engine", "cache_put", "serve"}

// perLayer are the traced pass's metrics. Every traced run reports
// all of them; a layer the workload never calls reads 0 (README.md
// lists where each applies).
func perLayer() []metricSpec {
	specs := []metricSpec{
		{"engine.busy_frac", "ratio", "higher"},
		{"engine.steals", "count", "lower"},
		{"security.seal_us", "us", "lower"},
		{"security.verify_us", "us", "lower"},
		{"security.verify_fanout_us", "us", "lower"},
		{"security.cert_verify_us", "us", "lower"},
	}
	for _, m := range mechanismKeys() {
		specs = append(specs, metricSpec{"defense." + m + ".cost_ms", "ms", "lower"})
	}
	specs = append(specs,
		metricSpec{"defense.detections", "count", "higher"},
		metricSpec{"defense.trust_blocked", "count", "higher"},
		metricSpec{"attack.baseline.run_ms", "ms", "lower"})
	for _, a := range attackKeys() {
		specs = append(specs, metricSpec{"attack." + a + ".run_ms", "ms", "lower"})
	}
	specs = append(specs,
		metricSpec{"attack.injected", "count", "lower"},
		metricSpec{"sim.events", "count", "lower"},
		metricSpec{"sim.events_per_s", "1/s", "higher"},
		metricSpec{"sim.event_ns", "ns", "lower"},
		metricSpec{"phy.fading_draws", "count", "lower"},
		metricSpec{"phy.deep_fades", "count", "lower"},
		metricSpec{"phy.rx_ns", "ns", "lower"},
		metricSpec{"mac.tx", "count", "lower"},
		metricSpec{"mac.delivered", "count", "higher"},
		metricSpec{"mac.lost", "count", "lower"},
		metricSpec{"mac.backoffs", "count", "lower"},
		metricSpec{"mac.queue_drops", "count", "lower"},
		metricSpec{"mac.stuck_drops", "count", "lower"},
		metricSpec{"mac.pdr", "ratio", "higher"},
		metricSpec{"mac.broadcast_us", "us", "lower"},
		metricSpec{"message.envelope_roundtrip_ns", "ns", "lower"},
		metricSpec{"platoon.verify_drops", "count", "lower"},
		metricSpec{"world.unit_ticks", "count", "lower"},
		metricSpec{"world.frames_tx", "count", "lower"},
		metricSpec{"world.delivered", "count", "higher"},
		metricSpec{"world.lost", "count", "lower"},
		metricSpec{"world.jammed", "count", "lower"},
		metricSpec{"world.migrations", "count", "lower"},
		metricSpec{"world.run_ms", "ms", "lower"},
		metricSpec{"world.ns_per_rx_attempt", "ns", "lower"},
		metricSpec{"world.epoch_wall_ms", "ms", "lower"},
		metricSpec{"world.shard_step_ms_max", "ms", "lower"},
		metricSpec{"service.hit_ms", "ms", "lower"},
		metricSpec{"service.spill_ms", "ms", "lower"},
		metricSpec{"service.miss_ms", "ms", "lower"},
		metricSpec{"service.hit_ratio", "ratio", "higher"},
		metricSpec{"service.dedup", "count", "higher"},
		metricSpec{"service.evictions", "count", "lower"},
		metricSpec{"service.spill_writes", "count", "lower"},
		metricSpec{"service.spill_corrupt", "count", "lower"})
	for _, st := range serviceStages {
		specs = append(specs, metricSpec{"service.stage." + st + "_us", "us", "lower"})
	}
	specs = append(specs,
		metricSpec{"service.normalize_us", "us", "lower"},
		metricSpec{"service.digest_us", "us", "lower"},
		metricSpec{"service.cache_get_us", "us", "lower"},
		metricSpec{"service.cache_put_us", "us", "lower"},
		metricSpec{"bench.trace_overhead_frac", "ratio", "lower"})
	return specs
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: the benchmark's last line of output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finite keeps a value JSON-encodable: a failed request counts as an
// infinite latency, and a percentile landing on one reads as 1e12.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return 1e12
	}
	return v
}

// buildReport fills every spec'd metric from values (absent ones read
// 0) and refuses values for names outside the specs.
func buildReport(specs []metricSpec, values map[string]float64, attempted, failed int64) (report, error) {
	known := make(map[string]bool, len(specs))
	r := report{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		known[s.Name] = true
		r.Metrics[s.Name] = metricValue{Value: finite(values[s.Name]), Unit: s.Unit}
	}
	var stray []string
	for name := range values {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return report{}, fmt.Errorf("metrics without a spec: %v", stray)
	}
	return r, nil
}

// printHuman writes one "name value unit" line per metric, in spec
// order, ahead of the result line.
func printHuman(w io.Writer, specs []metricSpec, r report) {
	for _, s := range specs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", s.Name, r.Metrics[s.Name].Value, s.Unit)
	}
}

// printReport writes the result line.
func printReport(w io.Writer, r report) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
