package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"platoonsec/internal/engine"
	"platoonsec/internal/lab"
	"platoonsec/internal/scenario"
	"platoonsec/internal/sim"
	"platoonsec/internal/taxonomy"
	"platoonsec/internal/world"
)

// Workload names.
const (
	matrixName = "tableIII-matrix"
	sweepName  = "tableII-sweep"
	worldName  = "world-ring"
	mixName    = "platoond-mix"
)

// Input sizes. The matrix is smaller than the paper-table default
// (8 vehicles, 60 s) so a batch takes seconds, not minutes: its PKI
// cells verify every frame at every receiver, so their cost grows with
// vehicles² × duration.
const (
	matrixVehicles = 4
	matrixDuration = 15 * sim.Second
	sweepSeeds     = 3
	worldSeeds     = 8
	// The world runs 10 s with the jammer armed at 2 s (E18: 60 s, armed
	// at 10 s): the per-epoch work is the same, and a run is short
	// enough that the tail percentile gets its samples.
	worldDuration    = 10 * sim.Second
	worldAttackStart = 2 * sim.Second
)

// Seed-derivation tags: each input stream derives from the workload
// seed under its own tag.
const (
	tagMatrix uint64 = iota + 1
	tagSweep
	tagWorld
	tagMixRequest
	tagMixOp
	tagMixShuffle
)

// derive hashes the workload seed and tags into an independent 64-bit
// value (splitmix64 finalisation per part).
func derive(seed int64, parts ...uint64) uint64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	mix := func(z uint64) uint64 {
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for _, p := range parts {
		h = mix(h ^ p)
	}
	return mix(h)
}

// simSeed derives a positive simulation seed.
func simSeed(seed int64, parts ...uint64) int64 {
	return int64(derive(seed, parts...)>>1) | 1
}

// simJob is one simulation in a batch.
type simJob struct {
	label    string
	attack   string // "" = baseline
	mech     string // Table III mechanism of a matrix cell
	defended bool
	vehSec   float64 // simulated vehicle-seconds
	scen     *scenario.Options
	world    *world.Options
}

// simOut is one run's checked output.
type simOut struct {
	digest string
	res    *scenario.Result // traced passes only
	wres   *world.Result    // traced passes only
	wallMS float64
	// scaledMS is wallMS at the calibration kernel's reference speed
	// (calib.go).
	scaledMS float64
}

// do runs the job. A traced run turns on the recorders that are pinned
// not to change a run's bytes (Observe; the world timeline with a wall
// clock); the digest is taken with their output stripped, so it must
// equal the untraced run's.
func (j *simJob) do(traced bool) (simOut, error) {
	if j.world != nil {
		o := *j.world
		if traced {
			o.Timeline = true
			o.WallClock = func() int64 { return time.Now().UnixNano() }
		}
		r, err := world.Run(o)
		if err != nil {
			return simOut{}, err
		}
		plain := *r
		plain.Timeline = nil
		b, err := json.Marshal(&plain)
		if err != nil {
			return simOut{}, err
		}
		out := simOut{digest: sha256Hex(b)}
		if traced {
			out.wres = r
		}
		return out, nil
	}
	o := *j.scen
	o.Observe = traced
	r, err := scenario.Run(o)
	if err != nil {
		return simOut{}, err
	}
	plain := *r
	plain.Obs = nil
	b, err := json.Marshal(&plain)
	if err != nil {
		return simOut{}, err
	}
	out := simOut{digest: sha256Hex(b)}
	if traced {
		out.res = r
	}
	return out, nil
}

// matrixJobs is Table III: every claimed (mechanism, attack) cell as an
// undefended and a defended twin, all on one simulation seed.
func matrixJobs(seed int64) ([]simJob, error) {
	cfg := lab.Config{Seed: simSeed(seed, tagMatrix), Duration: matrixDuration, Vehicles: matrixVehicles}
	var jobs []simJob
	for _, m := range taxonomy.Mechanisms() {
		pack, err := scenario.PackForMechanism(m.Key)
		if err != nil {
			return nil, err
		}
		for _, a := range m.Mitigates {
			for _, defended := range []bool{false, true} {
				o := cfg.OptionsFor(a, scenario.DefensePack{})
				label := m.Key + "/" + a
				if defended {
					o = cfg.OptionsFor(a, pack)
					label += "+defense"
				}
				jobs = append(jobs, simJob{label: label, attack: a, mech: m.Key, defended: defended,
					vehSec: float64(o.Vehicles) * o.Duration.Seconds(), scen: &o})
			}
		}
	}
	return jobs, nil
}

// sweepJobs is Table II plus the jamming dose-response, undefended, at
// the paper-table input size, over sweepSeeds seeds.
func sweepJobs(seed int64) []simJob {
	var jobs []simJob
	add := func(o scenario.Options, label string) {
		jobs = append(jobs, simJob{label: label, attack: o.AttackKey,
			vehSec: float64(o.Vehicles) * o.Duration.Seconds(), scen: &o})
	}
	for s := 0; s < sweepSeeds; s++ {
		cfg := lab.DefaultConfig()
		cfg.Seed = simSeed(seed, tagSweep, uint64(s))
		add(cfg.OptionsFor("", scenario.DefensePack{}), "baseline")
		for _, a := range attackKeys() {
			add(cfg.OptionsFor(a, scenario.DefensePack{}), a)
		}
		for _, dbm := range []float64{10, 20, 30, 40, 50} {
			o := cfg.OptionsFor("jamming", scenario.DefensePack{})
			o.JammerPowerDBm = dbm
			add(o, fmt.Sprintf("jamming@%gdBm", dbm))
		}
	}
	return jobs
}

// worldJobs is the E18 interchange-jamming world (1000 platoons × 100
// vehicles, 4 shards, one world worker so parallelism is the engine's)
// over worldSeeds seeds.
func worldJobs(seed int64) []simJob {
	jobs := make([]simJob, worldSeeds)
	for s := range jobs {
		o := world.DefaultOptions()
		o.Seed = simSeed(seed, tagWorld, uint64(s))
		o.Platoons, o.VehiclesPerPlatoon = 1000, 100
		o.Shards, o.Workers = 4, 1
		o.AttackKey = "jamming"
		o.Duration, o.AttackStart = worldDuration, worldAttackStart
		vehicles := o.Platoons*o.VehiclesPerPlatoon + o.FreeAgents
		jobs[s] = simJob{label: fmt.Sprintf("world/seed%d", s), attack: o.AttackKey,
			vehSec: float64(vehicles) * o.Duration.Seconds(), world: &o}
	}
	return jobs
}

func matrixWorkload() workload {
	return workload{name: matrixName, tailQ: 0.9, vehicles: matrixVehicles,
		why: "all 18 Table III cells as undefended/defended twins; the PKI cells spend most of their time in the security layer",
		setup: func(b *bench) (runner, error) {
			jobs, err := matrixJobs(b.seed)
			if err != nil {
				return nil, err
			}
			return newSimRunner(b, matrixName, jobs)
		}}
}

func sweepWorkload() workload {
	return workload{name: sweepName, tailQ: 0.9, vehicles: lab.DefaultConfig().Vehicles,
		why:   "baseline, all 9 attacks undefended and the 10-50 dBm jamming dose-response: kernel, phy, mac and attack work, no security",
		setup: func(b *bench) (runner, error) { return newSimRunner(b, sweepName, sweepJobs(b.seed)) }}
}

func worldWorkload() workload {
	return workload{name: worldName, tailQ: 0.75, vehicles: 100,
		why:   "E18 interchange-jamming world, 1000 platoons x 100 vehicles, 4 shards: all-pairs shard reception, no security or mac",
		setup: func(b *bench) (runner, error) { return newSimRunner(b, worldName, worldJobs(b.seed)) }}
}

// simRunner runs a fixed batch of simulations through engine.Sweep,
// repeatedly. Every batch's outputs are checked against the pinned
// digests at the pinned seed, and otherwise against the first batch.
type simRunner struct {
	b     *bench
	name  string
	jobs  []simJob
	ref   []string
	calib *calibPool
}

// newSimRunner loads the reference digests and warms up with the first
// job (a world job shortened to ten epochs, which still builds the
// whole ring).
func newSimRunner(b *bench, name string, jobs []simJob) (*simRunner, error) {
	ref, err := b.pinned(name)
	if err != nil {
		return nil, err
	}
	if ref != nil && len(ref) != len(jobs) {
		return nil, fmt.Errorf("pinned.json has %d digests for %s, the batch has %d jobs", len(ref), name, len(jobs))
	}
	warm := jobs[0]
	if warm.world != nil {
		o := *warm.world
		o.Duration = 10 * o.Epoch
		warm.world = &o
	}
	if _, err := warm.do(false); err != nil {
		return nil, fmt.Errorf("warm-up run %s: %w", warm.label, err)
	}
	return &simRunner{b: b, name: name, jobs: jobs, ref: ref, calib: newCalibPool(b.workers, 0)}, nil
}

func (r *simRunner) close() error { return nil }

// check: every simulated output was checked batch by batch in pass.
func (r *simRunner) check(*passResult) error { return nil }

// digests runs one unchecked batch.
func (r *simRunner) digests() ([]string, error) {
	rep := r.sweep(false, nil, 0)
	if rep.Err != nil {
		return nil, fmt.Errorf("run %d: %w", rep.ErrIndex, rep.Err)
	}
	d := make([]string, len(rep.Results))
	for i, o := range rep.Results {
		d[i] = o.digest
	}
	return d, nil
}

// sweep runs one batch through the engine with b.workers workers.
func (r *simRunner) sweep(traced bool, tr *tracer, batchSpan uint64) *engine.Report[simOut] {
	jobs := make([]engine.Job[simOut], len(r.jobs))
	for i := range r.jobs {
		j := &r.jobs[i]
		jobs[i] = func(context.Context) (simOut, error) {
			lane := tr.lane()
			defer tr.release(lane)
			id := tr.reserve()
			var out simOut
			var err error
			var t0 time.Time
			wall, scaled := r.calib.time(func() {
				t0 = time.Now()
				out, err = j.do(traced)
			})
			t1 := t0.Add(time.Duration(wall))
			out.wallMS, out.scaledMS = wall/1e6, scaled/1e6
			if tr != nil {
				call := "scenario.Run"
				if j.world != nil {
					call = "world.Run"
					epochSpans(tr, id, lane, t0, out.wres)
				}
				tr.fill(id, batchSpan, j.label, call, lane, t0, t1, map[string]any{"digest": out.digest})
			}
			return out, err
		}
	}
	return engine.Sweep(context.Background(), jobs, engine.Config[simOut]{Workers: r.b.workers})
}

// epochSpans lays a traced world run's epochs out under its span, one
// after another, each as long as the epoch's measured wall time.
func epochSpans(tr *tracer, parent uint64, lane int, t0 time.Time, res *world.Result) {
	if res == nil || res.Timeline == nil {
		return
	}
	at := t0
	for _, s := range res.Timeline.Samples {
		d := time.Duration(s.Gauges["world.epoch_wall_ms"] * 1e6)
		tr.add(parent, "epoch", "world.epoch", lane, at, at.Add(d),
			map[string]any{"index": s.Index, "shard_step_ms_max": s.Gauges["world.shard_step_ms_max"]})
		at = at.Add(d)
	}
}

// simDetail is a traced pass's per-run record: every batch's outputs.
type simDetail struct {
	batches [][]simOut
}

func (r *simRunner) pass(tr *tracer, done func(p *passResult, elapsed time.Duration) bool) (*passResult, error) {
	p := &passResult{}
	detail := &simDetail{}
	start := time.Now()
	for {
		batchSpan := tr.reserve()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		rep := r.sweep(tr != nil, tr, batchSpan)
		t1 := time.Now()
		runtime.ReadMemStats(&after)
		tr.fill(batchSpan, 0, fmt.Sprintf("batch %d", p.batches), "engine.Sweep", 0, t0, t1,
			map[string]any{"runs": len(r.jobs), "steals": rep.Telemetry.Steals})
		r.checkBatch(rep)
		wall := t1.Sub(t0).Seconds()
		var vehSec, scaledS, busyNS float64
		lat := make([]float64, len(r.jobs))
		for i, j := range r.jobs {
			vehSec += j.vehSec
			lat[i] = rep.Results[i].scaledMS
			scaledS += rep.Results[i].scaledMS / 1e3
			busyNS += float64(rep.Stats[i].WallNS)
		}
		p.latencyMS = append(p.latencyMS, lat)
		p.scaledWall = append(p.scaledWall, scaledS)
		p.batches++
		p.batchWall = append(p.batchWall, wall)
		p.vehSec = append(p.vehSec, vehSec)
		p.ops = append(p.ops, float64(len(r.jobs)))
		p.allocBytes = append(p.allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
		p.busyFrac = append(p.busyFrac, busyNS/(float64(rep.Telemetry.WallNS)*float64(rep.Telemetry.Workers)))
		p.steals = append(p.steals, float64(rep.Telemetry.Steals))
		if tr != nil {
			detail.batches = append(detail.batches, rep.Results)
		}
		if done(p, time.Since(start)) {
			break
		}
	}
	p.detail = detail
	return p, nil
}

// checkBatch counts the batch's runs and fails any that errored or
// whose output differs from the reference. The first batch of a run at
// an unpinned seed becomes the reference, so every later batch (and
// the traced pass) is an independent re-run checked against it.
func (r *simRunner) checkBatch(rep *engine.Report[simOut]) {
	r.b.attempted.Add(int64(len(r.jobs)))
	first := r.ref == nil
	if first {
		r.ref = make([]string, len(rep.Results))
	}
	for i, o := range rep.Results {
		switch {
		case rep.Errors[i] != nil:
			r.b.fail("%s run %s: %v", r.name, r.jobs[i].label, rep.Errors[i])
		case first:
			r.ref[i] = o.digest
		case o.digest != r.ref[i]:
			r.b.fail("%s run %s: result digest %.12s, want %.12s", r.name, r.jobs[i].label, o.digest, r.ref[i])
		}
	}
}
