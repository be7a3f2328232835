// Command platoonsim runs one platoon-security experiment and reports
// the measured impact.
//
// Usage:
//
//	platoonsim [flags]
//
//	-seed N          random seed (default 1)
//	-duration SECS   simulated seconds (default 60)
//	-vehicles N      platoon size incl. leader (default 8)
//	-attack KEY      attack to inject: sybil, fake-maneuver, replay,
//	                 jamming, eavesdropping, dos, impersonation,
//	                 sensor-spoofing, malware (default: none)
//	-attack-at SECS  attack arming time (default 10)
//	-defense LIST    comma-separated mechanisms: keys, rsu,
//	                 control-algorithms, hybrid-comms, onboard, all
//	-joiner          add a genuine joiner requesting admission
//	-trace FILE      write a CSV time series to FILE
//	-events FILE     write a JSONL event timeline to FILE
//	-obs             attach the flight recorder and print the metric
//	                 snapshot (counters, gauges, histograms) after the run
//	-obs-level LVL   flight-recorder admission severity: trace, debug,
//	                 info, warn, error (default info)
//	-trace-json FILE write a Chrome trace-event / Perfetto JSON timeline
//	                 of the run to FILE (implies -obs; load it at
//	                 ui.perfetto.dev); with -spans the timeline includes
//	                 flow arrows tracing each frame's causal chain
//	-spans           attach the causal span tracer and print its
//	                 admission statistics after the run
//	-forensics       print the attack→effect attribution report: per
//	                 effect kind, occurrence counts and the top causal
//	                 chains linking it back to the attacker (implies
//	                 -spans)
//	-world           run the sharded multi-platoon highway world instead
//	                 of a single-platoon experiment: -vehicles becomes
//	                 vehicles per platoon, and only the world-scale
//	                 attacks (jamming, sybil) apply
//	-timeline        world mode: record the per-epoch metrics timeline
//	                 (frames, ticks, wall-clock shard timings) and print
//	                 it after the run; the simulation result stays
//	                 byte-identical with it on or off
//	-shards N        world mode: spatial kernel shards (default 1);
//	                 results are byte-identical at any shard count
//	-platoons N      world mode: platoon count (default 40)
//	-free N          world mode: free (unattached) vehicles (default 10)
//	-seeds N         run N consecutive seeds starting at -seed, in
//	                 parallel on the experiment engine (default 1)
//	-workers N       parallel workers for -seeds sweeps (0 = GOMAXPROCS)
//	-stats           print engine telemetry (runs/sec, p50/p95) to stderr
//	-cpuprofile FILE write a pprof CPU profile of the run(s)
//	-memprofile FILE write a pprof heap profile after the run(s)
//
// Examples:
//
//	platoonsim -attack jamming
//	platoonsim -attack jamming -defense hybrid-comms
//	platoonsim -attack sybil -defense control-algorithms -joiner
//	platoonsim -attack jamming -seeds 20 -workers 4 -stats
//	platoonsim -attack jamming -obs -trace-json jam.trace.json
//	platoonsim -attack impersonation -forensics
//	platoonsim -world -platoons 1000 -vehicles 100 -shards 4 -attack jamming
//	platoonsim -world -timeline -attack jamming
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"platoonsec"
	"platoonsec/internal/obs/timeline"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "platoonsim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("platoonsim", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "random seed")
	duration := fs.Float64("duration", 60, "simulated seconds")
	vehicles := fs.Int("vehicles", 8, "platoon size including leader")
	attackKey := fs.String("attack", "", "attack key (empty = baseline)")
	attackAt := fs.Float64("attack-at", 10, "attack arming time, seconds")
	defense := fs.String("defense", "", "comma-separated mechanism keys or 'all'")
	joiner := fs.Bool("joiner", false, "add a genuine joiner")
	traceFile := fs.String("trace", "", "CSV trace output file")
	eventsFile := fs.String("events", "", "JSONL event-timeline output file")
	obsOn := fs.Bool("obs", false, "attach the flight recorder and print its snapshot")
	obsLevel := fs.String("obs-level", "info", "flight-recorder admission severity (trace|debug|info|warn|error)")
	traceJSON := fs.String("trace-json", "", "Chrome trace-event / Perfetto JSON output file (implies -obs)")
	spansOn := fs.Bool("spans", false, "attach the causal span tracer and print its statistics")
	forensicsOn := fs.Bool("forensics", false, "print the attack→effect attribution report (implies -spans)")
	worldOn := fs.Bool("world", false, "run the sharded multi-platoon highway world")
	timelineOn := fs.Bool("timeline", false, "world mode: record the per-epoch metrics timeline with wall-clock shard timings")
	shards := fs.Int("shards", 1, "world mode: spatial kernel shards")
	platoons := fs.Int("platoons", 40, "world mode: platoon count")
	freeAgents := fs.Int("free", 10, "world mode: free (unattached) vehicles")
	seedsN := fs.Int("seeds", 1, "run N consecutive seeds starting at -seed")
	workers := fs.Int("workers", 0, "parallel workers for -seeds sweeps (0 = GOMAXPROCS)")
	stats := fs.Bool("stats", false, "print engine telemetry to stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to FILE")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seedsN < 1 {
		return fmt.Errorf("-seeds must be >= 1 (got %d)", *seedsN)
	}
	if *seedsN > 1 && (*traceFile != "" || *eventsFile != "" || *traceJSON != "" || *forensicsOn) {
		return fmt.Errorf("-trace/-events/-trace-json/-forensics capture a single run; use -seeds 1")
	}
	if *worldOn && (*seedsN > 1 || *traceFile != "" || *traceJSON != "" || *obsOn || *joiner || *defense != "") {
		return fmt.Errorf("-world is a single world run; -seeds/-trace/-trace-json/-obs/-joiner/-defense do not apply")
	}
	if *timelineOn && !*worldOn {
		return fmt.Errorf("-timeline applies to -world runs")
	}
	minLevel, ok := platoonsec.ParseObsLevel(*obsLevel)
	if !ok {
		return fmt.Errorf("unknown -obs-level %q (valid: %s)",
			*obsLevel, strings.Join(platoonsec.ObsLevelNames(), ", "))
	}

	o := platoonsec.DefaultOptions()
	o.Seed = *seed
	o.Duration = platoonsec.Time(*duration * float64(platoonsec.Second))
	o.Vehicles = *vehicles
	o.AttackKey = *attackKey
	o.AttackStart = platoonsec.Time(*attackAt * float64(platoonsec.Second))
	o.WithJoiner = *joiner

	if *defense != "" {
		pack, err := parseDefense(*defense)
		if err != nil {
			return err
		}
		o.Defense = pack
	}
	// A close failure means the kernel's buffered artifact bytes may
	// never have reached disk: report it unless the run already failed.
	closeOutput := func(f *os.File, what string) {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s: %w", what, cerr)
		}
	}
	if *traceFile != "" {
		f, ferr := os.Create(*traceFile)
		if ferr != nil {
			return fmt.Errorf("trace file: %w", ferr)
		}
		defer closeOutput(f, "trace file")
		o.TraceCSV = f
	}
	if *eventsFile != "" {
		f, ferr := os.Create(*eventsFile)
		if ferr != nil {
			return fmt.Errorf("events file: %w", ferr)
		}
		defer closeOutput(f, "events file")
		o.EventsJSONL = f
	}
	o.Observe = *obsOn || *traceJSON != ""
	o.ObsMinLevel = minLevel
	o.Spans = *spansOn || *forensicsOn
	if *traceJSON != "" {
		f, ferr := os.Create(*traceJSON)
		if ferr != nil {
			return fmt.Errorf("trace-json file: %w", ferr)
		}
		defer closeOutput(f, "trace-json file")
		o.ChromeTrace = f
	}

	if *cpuprofile != "" || *memprofile != "" {
		stop, perr := platoonsec.StartProfiles(*cpuprofile, *memprofile)
		if perr != nil {
			return perr
		}
		defer func() {
			if serr := stop(); serr != nil && err == nil {
				err = serr
			}
		}()
	}

	if *worldOn {
		wo := platoonsec.DefaultWorldOptions()
		wo.Seed = 0        // inherit -seed
		wo.Duration = 0    // inherit -duration
		wo.AttackKey = ""  // inherit -attack
		wo.AttackStart = 0 // inherit -attack-at
		wo.Shards = *shards
		wo.Workers = *workers
		wo.Platoons = *platoons
		wo.VehiclesPerPlatoon = *vehicles
		wo.FreeAgents = *freeAgents
		wo.Timeline = *timelineOn
		if *timelineOn {
			// Wall timings are operator diagnostics; the injected clock
			// keeps time.Now out of internal packages (nowalltime) and
			// out of every simulation observable.
			wo.WallClock = func() int64 { return time.Now().UnixNano() }
		}
		o.World = &wo
		r, werr := platoonsec.RunWorld(o)
		if werr != nil {
			return werr
		}
		fmt.Print(r.String())
		printTimeline(r.Timeline)
		if o.Spans {
			printSpans(r.Spans)
		}
		if *forensicsOn {
			printForensics(r.Forensics)
		}
		return nil
	}

	optsList := make([]platoonsec.Options, *seedsN)
	for i := range optsList {
		oi := o
		oi.Seed = *seed + int64(i)
		optsList[i] = oi
	}
	rep := platoonsec.SweepWithReport(context.Background(), optsList,
		platoonsec.SweepConfig{Workers: *workers})
	if rep.Err != nil {
		if *seedsN == 1 {
			return rep.Err
		}
		return fmt.Errorf("seed %d: %w", optsList[rep.ErrIndex].Seed, rep.Err)
	}
	if *seedsN == 1 {
		fmt.Print(rep.Results[0].String())
		if o.Observe {
			printSnapshot(rep.Results[0].Obs)
		}
		if o.Spans {
			printSpans(rep.Results[0].Spans)
		}
		if *forensicsOn {
			printForensics(rep.Results[0].Forensics)
		}
	} else {
		for i, r := range rep.Results {
			fmt.Printf("seed %-4d maxSpacingErr=%.2fm disbanded=%.0f%% PDR=%.3f ghosts=%d ejected=%d\n",
				optsList[i].Seed, r.MaxSpacingErr, r.DisbandedFrac*100, r.PDR,
				r.GhostMembers, r.VictimsEjected)
		}
		if o.Observe {
			printCounters("obs counters (all seeds):", rep.Telemetry.Counters)
		}
	}
	if *stats {
		fmt.Fprintln(os.Stderr, "engine:", rep.Telemetry.String())
	}
	return nil
}

// printTimeline renders the world's per-epoch timeline: frame and
// tick throughput per epoch and, when wall timings were recorded, the
// epoch wall time with its slowest shard step (last 8 epochs).
func printTimeline(s *timeline.Series) {
	if s == nil {
		return
	}
	first := 0
	if len(s.Samples) > 8 {
		first = len(s.Samples) - 8
		fmt.Printf("  ... %d earlier epochs elided\n", first)
	}
	for _, sm := range s.Samples[first:] {
		line := fmt.Sprintf("  epoch[%d] frames=%d ticks=%d", sm.Index,
			sm.Counters["world.frames_tx"], sm.Counters["world.unit_ticks"])
		if wall, ok := sm.Gauges["world.epoch_wall_ms"]; ok {
			line += fmt.Sprintf(" wall=%.2fms slowest_shard=%.2fms",
				wall, sm.Gauges["world.shard_step_ms_max"])
		}
		fmt.Println(line)
	}
}

// printSpans renders one run's span-store admission statistics.
func printSpans(s *platoonsec.SpanStats) {
	if s == nil {
		return
	}
	fmt.Printf("spans: admitted=%d dropped=%d\n", s.Admitted, s.Dropped)
}

// printForensics renders the attack→effect attribution report: each
// effect kind with its occurrence/attribution counts and the retained
// causal chains, root (attack side) first.
func printForensics(f *platoonsec.Forensics) {
	if f == nil {
		return
	}
	fmt.Println("forensics:")
	if len(f.Effects) == 0 {
		fmt.Println("  (no effects recorded)")
		return
	}
	for _, e := range f.Effects {
		fmt.Printf("  %-24s count=%d attributed=%d\n", e.Kind, e.Count, e.Attributed)
		for _, ch := range e.Chains {
			fmt.Printf("    %s\n", ch)
		}
	}
}

// printSnapshot renders one run's observability snapshot.
func printSnapshot(s *platoonsec.ObsSnapshot) {
	if s == nil {
		return
	}
	fmt.Printf("observability: records=%d dropped=%d\n", s.Records, s.Dropped)
	printCounters("  counters:", s.Counters)
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Printf("    %s = %g\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Printf("    %s: n=%d min=%.1f p50=%.1f p95=%.1f max=%.1f\n",
			name, h.Count, h.Min, h.Quantile(0.5), h.Quantile(0.95), h.Max)
	}
}

func printCounters(header string, counters map[string]uint64) {
	if len(counters) == 0 {
		return
	}
	fmt.Println(header)
	for _, name := range sortedKeys(counters) {
		fmt.Printf("    %-31s %d\n", name, counters[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func parseDefense(spec string) (platoonsec.DefensePack, error) {
	if spec == "all" {
		return platoonsec.AllDefenses(), nil
	}
	var pack platoonsec.DefensePack
	for _, key := range strings.Split(spec, ",") {
		key = strings.TrimSpace(key)
		if key == "" {
			continue
		}
		p, err := platoonsec.PackForMechanism(key)
		if err != nil {
			return pack, err
		}
		pack = merge(pack, p)
	}
	return pack, nil
}

func merge(a, b platoonsec.DefensePack) platoonsec.DefensePack {
	return platoonsec.DefensePack{
		PKI:        a.PKI || b.PKI,
		Encrypt:    a.Encrypt || b.Encrypt,
		RateLimit:  a.RateLimit || b.RateLimit,
		VPDADA:     a.VPDADA || b.VPDADA,
		Trust:      a.Trust || b.Trust,
		Hybrid:     a.Hybrid || b.Hybrid,
		Fusion:     a.Fusion || b.Fusion,
		GapTimeout: a.GapTimeout || b.GapTimeout,
	}
}
