package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"platoonsec/internal/engine"
	"platoonsec/internal/obs"
	"platoonsec/internal/scenario"
	"platoonsec/internal/service"
)

// clientSpan is a traced request, kept so the server's own trace of it
// can be nested under it.
type clientSpan struct {
	id     uint64
	lane   int
	digest string
	start  time.Time
	end    time.Time
}

// mixDetail is a traced pass's service-side record.
type mixDetail struct {
	byCache       map[string][]float64 // client latency (ms) by X-Platoond-Cache
	stages        map[string][]float64 // stage durations (µs) from /v1/traces
	before, after obs.Snapshot         // /v1/metrics around the pass
}

func (r *mixRunner) pass(tr *tracer, done func(p *passResult, elapsed time.Duration) bool) (*passResult, error) {
	p := &passResult{}
	d := &mixDetail{byCache: map[string][]float64{}, stages: map[string][]float64{}}
	if tr != nil {
		if err := r.getJSON("/v1/metrics", &d.before); err != nil {
			return nil, err
		}
		// Skip the set-up traffic's traces.
		if err := r.importTraces(nil, nil, 0); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for {
		ops, err := r.gen.batch(r.batchNo)
		if err != nil {
			return nil, err
		}
		r.batchNo++
		batchSpan := tr.reserve()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var outs []opOut
		var tel engine.Telemetry
		var busy float64
		var t0 time.Time
		wall, scaled := r.calib.time(func() {
			t0 = time.Now()
			outs, tel, busy = r.sweepStats(ops, tr, batchSpan)
		})
		t1 := t0.Add(time.Duration(wall))
		runtime.ReadMemStats(&after)
		tr.fill(batchSpan, 0, fmt.Sprintf("batch %d", r.batchNo-1), "engine.Sweep", 0, t0, t1,
			map[string]any{"requests": len(ops), "steals": tel.Steals})
		if tr != nil {
			if err := r.importTraces(tr, d, batchSpan); err != nil {
				return nil, err
			}
		}
		// Each request's latency is scaled by its batch's factor.
		var vehSec float64
		lat := make([]float64, len(outs))
		for i, o := range outs {
			vehSec += o.vehSec
			lat[i] = o.latencyMS * scaled / wall
			if tr != nil && o.cache != "" {
				d.byCache[o.cache] = append(d.byCache[o.cache], o.latencyMS)
			}
		}
		p.batches++
		p.latencyMS = append(p.latencyMS, lat)
		p.batchWall = append(p.batchWall, wall/1e9)
		p.scaledWall = append(p.scaledWall, scaled/1e9)
		p.vehSec = append(p.vehSec, vehSec)
		p.ops = append(p.ops, float64(len(ops)))
		p.allocBytes = append(p.allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
		p.busyFrac = append(p.busyFrac, busy)
		p.steals = append(p.steals, float64(tel.Steals))
		if done(p, time.Since(start)) {
			break
		}
	}
	if tr != nil {
		if err := r.getJSON("/v1/metrics", &d.after); err != nil {
			return nil, err
		}
	}
	p.detail = d
	return p, nil
}

// sweepStats runs one batch and returns its outcomes, the engine's
// telemetry and its busy fraction (summed request time over wall ×
// workers).
func (r *mixRunner) sweepStats(ops []mixOp, tr *tracer, batchSpan uint64) ([]opOut, engine.Telemetry, float64) {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
	outs, rep := r.sweep(ops, tr, batchSpan)
	var busyNS float64
	for _, s := range rep.Stats {
		busyNS += float64(s.WallNS)
	}
	return outs, rep.Telemetry, busyNS / (float64(rep.Telemetry.WallNS) * float64(rep.Telemetry.Workers))
}

// importTraces reads the server's request traces newer than the last
// import. With a tracer it nests each one's stages under the client
// request it served (same digest, starting inside the request) and
// collects the stage durations.
func (r *mixRunner) importTraces(tr *tracer, d *mixDetail, batchSpan uint64) error {
	var rep struct {
		Traces []service.RequestTrace `json:"traces"`
	}
	if err := r.getJSON("/v1/traces", &rep); err != nil {
		return err
	}
	r.mu.Lock()
	byDigest := map[string][]clientSpan{}
	for _, s := range r.spans {
		byDigest[s.digest] = append(byDigest[s.digest], s)
	}
	r.mu.Unlock()
	for _, t := range rep.Traces {
		if t.ID <= r.lastTrace {
			continue
		}
		r.lastTrace = t.ID
		if tr == nil {
			continue
		}
		parent, lane := batchSpan, 0
		at := time.Unix(0, t.StartNS)
		for _, s := range byDigest[t.Digest] {
			if !at.Before(s.start) && !at.After(s.end) {
				parent, lane = s.id, s.lane
				break
			}
		}
		for _, st := range t.Stages {
			s0 := time.Unix(0, st.StartNS)
			tr.add(parent, st.Name, "service", lane, s0, s0.Add(time.Duration(st.DurNS)), nil)
			d.stages[st.Name] = append(d.stages[st.Name], float64(st.DurNS)/1e3)
		}
	}
	return nil
}

// check compares every served digest's body, once, with a direct
// library run of the same normalized request.
func (r *mixRunner) check(*passResult) error {
	type pending struct {
		digest, hash string
		req          service.RunRequest
	}
	var todo []pending
	r.mu.Lock()
	for _, p := range r.gen.pool {
		if h, ok := r.bodies[p.digest]; ok && !r.verified[p.digest] {
			todo = append(todo, pending{p.digest, h, p.norm})
			r.verified[p.digest] = true
		}
	}
	r.mu.Unlock()
	jobs := make([]engine.Job[string], len(todo))
	for i := range todo {
		req := todo[i].req
		jobs[i] = func(context.Context) (string, error) {
			opts, err := req.Options(1, 1, nil)
			if err != nil {
				return "", err
			}
			res, err := scenario.Run(opts)
			if err != nil {
				return "", err
			}
			b, err := json.Marshal(res)
			if err != nil {
				return "", err
			}
			return sha256Hex(b), nil
		}
	}
	rep := engine.Sweep(context.Background(), jobs, engine.Config[string]{Workers: r.b.workers})
	fmt.Fprintf(r.b.log, "  %d distinct bodies checked against direct library runs\n", len(todo))
	for i, t := range todo {
		switch {
		case rep.Errors[i] != nil:
			r.b.fail("%s direct run of %.12s: %v", mixName, t.digest, rep.Errors[i])
		case rep.Results[i] != t.hash:
			r.b.fail("%s digest %.12s: served body differs from a direct library run", mixName, t.digest)
		}
	}
	return nil
}

// layers derives the service metrics from a traced pass.
func (r *mixRunner) layers(p *passResult, values map[string]float64) error {
	d, ok := p.detail.(*mixDetail)
	if !ok {
		return fmt.Errorf("%s: traced pass recorded no detail", mixName)
	}
	for cache, name := range map[string]string{"hit": "service.hit_ms", "spill": "service.spill_ms", "miss": "service.miss_ms"} {
		q, err := percentile(d.byCache[cache], 0.5)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		values[name] = q.Value
	}
	delta := func(name string) float64 {
		return float64(d.after.Counters[name] - d.before.Counters[name])
	}
	if looked := delta("service.cache_hits") + delta("service.cache_spill_hits") + delta("service.cache_misses"); looked > 0 {
		values["service.hit_ratio"] = delta("service.cache_hits") / looked
	}
	values["service.dedup"] = delta("service.dedup_coalesced")
	values["service.evictions"] = delta("service.cache_evictions")
	values["service.spill_writes"] = delta("service.spill_writes")
	values["service.spill_corrupt"] = delta("service.spill_corrupt")
	for _, st := range serviceStages {
		q, err := percentile(d.stages[st], 0.5)
		if err != nil {
			return fmt.Errorf("service.stage.%s_us: %w", st, err)
		}
		values["service.stage."+st+"_us"] = q.Value
	}
	return nil
}
