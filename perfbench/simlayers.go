package main

import (
	"fmt"
)

// layers derives the simulation layers' metrics from a traced pass:
// deterministic counters from its first batch (every batch is the same
// inputs), timings over all of its batches.
func (r *simRunner) layers(p *passResult, values map[string]float64) error {
	d, ok := p.detail.(*simDetail)
	if !ok || len(d.batches) == 0 {
		return fmt.Errorf("%s: traced pass recorded no batches", r.name)
	}
	// Per job, the median wall time over the traced batches.
	jobMS := make([]float64, len(r.jobs))
	for i := range r.jobs {
		var xs []float64
		for _, batch := range d.batches {
			xs = append(xs, batch[i].wallMS)
		}
		jobMS[i] = median(xs)
	}
	if r.jobs[0].world != nil {
		return r.worldLayers(d, jobMS, values)
	}

	// Obs counters of the first batch, summed over its runs.
	counters := map[string]uint64{}
	var events, verifyDrops uint64
	for _, o := range d.batches[0] {
		if o.res == nil {
			return fmt.Errorf("%s: traced run returned no result", r.name)
		}
		events += o.res.EventsFired
		verifyDrops += o.res.VerifyDrops
		if o.res.Obs != nil {
			for k, v := range o.res.Obs.Counters {
				counters[k] += v
			}
		}
	}
	for _, name := range []string{"defense.detections", "defense.trust_blocked", "attack.injected",
		"phy.fading_draws", "phy.deep_fades", "mac.tx", "mac.delivered", "mac.lost",
		"mac.backoffs", "mac.queue_drops", "mac.stuck_drops"} {
		values[name] = float64(counters[name])
	}
	if sent := counters["mac.delivered"] + counters["mac.lost"]; sent > 0 {
		values["mac.pdr"] = float64(counters["mac.delivered"]) / float64(sent)
	}
	values["platoon.verify_drops"] = float64(verifyDrops)
	values["sim.events"] = float64(events)
	var runMS float64
	for _, ms := range jobMS {
		runMS += ms
	}
	if runMS > 0 {
		values["sim.events_per_s"] = float64(events) / (runMS / 1e3)
	}

	// attack.<key>.run_ms: median over the undefended runs of each
	// attack (baseline = no attack).
	byAttack := map[string][]float64{}
	for i, j := range r.jobs {
		if j.defended {
			continue
		}
		key := j.attack
		if key == "" {
			key = "baseline"
		}
		byAttack[key] = append(byAttack[key], jobMS[i])
	}
	for key, xs := range byAttack {
		values["attack."+key+".run_ms"] = median(xs)
	}

	// defense.<mech>.cost_ms: median over the mechanism's cells of the
	// defended twin's time minus the undefended twin's.
	costs := map[string][]float64{}
	for i, j := range r.jobs {
		if !j.defended {
			continue
		}
		for k, u := range r.jobs {
			if !u.defended && u.mech == j.mech && u.attack == j.attack {
				costs[j.mech] = append(costs[j.mech], jobMS[i]-jobMS[k])
			}
		}
	}
	for mech, xs := range costs {
		values["defense."+mech+".cost_ms"] = median(xs)
	}
	return nil
}

// worldLayers reads the world's own counters and its wall-clocked
// epoch timeline.
func (r *simRunner) worldLayers(d *simDetail, jobMS []float64, values map[string]float64) error {
	var ticks, tx, delivered, lost, jammed, migrations uint64
	for _, o := range d.batches[0] {
		w := o.wres
		if w == nil {
			return fmt.Errorf("%s: traced run returned no result", r.name)
		}
		ticks += w.UnitTicks
		tx += w.FramesTx
		delivered += w.Delivered
		lost += w.Lost
		jammed += w.Jammed
		migrations += w.Migrations
	}
	values["world.unit_ticks"] = float64(ticks)
	values["world.frames_tx"] = float64(tx)
	values["world.delivered"] = float64(delivered)
	values["world.lost"] = float64(lost)
	values["world.jammed"] = float64(jammed)
	values["world.migrations"] = float64(migrations)
	values["world.run_ms"] = median(jobMS)
	var runMS float64
	for _, ms := range jobMS {
		runMS += ms
	}
	if attempts := delivered + lost + jammed; attempts > 0 {
		values["world.ns_per_rx_attempt"] = runMS * 1e6 / float64(attempts)
	}
	var epochMS, stepMS []float64
	for _, batch := range d.batches {
		for _, o := range batch {
			if o.wres.Timeline == nil {
				return fmt.Errorf("%s: traced run recorded no timeline", r.name)
			}
			for _, s := range o.wres.Timeline.Samples {
				epochMS = append(epochMS, s.Gauges["world.epoch_wall_ms"])
				stepMS = append(stepMS, s.Gauges["world.shard_step_ms_max"])
			}
		}
	}
	e, err := percentile(epochMS, 0.5)
	if err != nil {
		return fmt.Errorf("world.epoch_wall_ms: %w", err)
	}
	s, err := percentile(stepMS, 0.5)
	if err != nil {
		return fmt.Errorf("world.shard_step_ms_max: %w", err)
	}
	values["world.epoch_wall_ms"] = e.Value
	values["world.shard_step_ms_max"] = s.Value
	return nil
}
