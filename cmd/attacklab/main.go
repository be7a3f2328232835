// Command attacklab sweeps the full attack × defense-mechanism matrix —
// including pairings the paper does NOT claim — and prints a grid
// comparing measured mitigation against the paper's Table III claims.
// Cells are measured in parallel on the experiment engine; the grid is
// identical for any worker count because each cell is a deterministic
// pair of runs and emission is index-ordered.
//
//	attacklab [-quick] [-seed N] [-attack KEY] [-mech KEY] [-v]
//	          [-workers N] [-jsonl FILE] [-stats] [-obs]
//	          [-forensics FILE] [-cpuprofile FILE] [-memprofile FILE]
//
//	-workers N       parallel cell workers (0 = GOMAXPROCS)
//	-jsonl FILE      stream per-cell results as JSON lines to FILE
//	-stats           print engine telemetry (runs/sec, p50/p95) to stderr
//	-obs             attach the flight recorder to every run and print
//	                 the aggregated observability counters to stderr
//	-forensics FILE  attach the causal span tracer to every run and
//	                 write the per-cell attack→effect attribution
//	                 reports (undefended and defended) as JSON to FILE;
//	                 the document is byte-identical at any worker count
//	-cpuprofile FILE write a pprof CPU profile of the sweep
//	-memprofile FILE write a pprof heap profile after the sweep
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"platoonsec/internal/engine"
	"platoonsec/internal/lab"
	"platoonsec/internal/obs/span"
	"platoonsec/internal/scenario"
	"platoonsec/internal/sim"
	"platoonsec/internal/taxonomy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "attacklab:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("attacklab", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shorter runs")
	seed := fs.Int64("seed", 1, "random seed")
	onlyAttack := fs.String("attack", "", "restrict to one attack key")
	onlyMech := fs.String("mech", "", "restrict to one mechanism key")
	verbose := fs.Bool("v", false, "print per-cell details")
	workers := fs.Int("workers", 0, "parallel cell workers (0 = GOMAXPROCS)")
	jsonlFile := fs.String("jsonl", "", "stream per-cell results as JSON lines to FILE")
	stats := fs.Bool("stats", false, "print engine telemetry to stderr")
	obsOn := fs.Bool("obs", false, "attach the flight recorder and print aggregated counters to stderr")
	forensicsFile := fs.String("forensics", "", "write per-cell attack→effect attribution reports as JSON to FILE")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to FILE")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := lab.DefaultConfig()
	cfg.Seed = *seed
	cfg.Observe = *obsOn
	cfg.Spans = *forensicsFile != ""
	if *quick {
		cfg.Duration = 40 * sim.Second
		cfg.Vehicles = 6
	}

	if *cpuprofile != "" || *memprofile != "" {
		stop, perr := engine.StartProfiles(*cpuprofile, *memprofile)
		if perr != nil {
			return perr
		}
		defer func() {
			if serr := stop(); serr != nil && err == nil {
				err = serr
			}
		}()
	}

	attacks := taxonomy.Attacks()
	mechs := taxonomy.Mechanisms()

	// The measured cells, row-major over the filtered grid.
	var pairs []pair
	for _, a := range attacks {
		if *onlyAttack != "" && a.Key != *onlyAttack {
			continue
		}
		for _, m := range mechs {
			if *onlyMech != "" && m.Key != *onlyMech {
				continue
			}
			pairs = append(pairs, pair{a.Key, m.Key})
		}
	}
	jobs := make([]engine.Job[*lab.Cell], len(pairs))
	for i := range pairs {
		p := pairs[i]
		jobs[i] = func(context.Context) (*lab.Cell, error) {
			return lab.MeasureCell(cfg, p.attack, p.mech)
		}
	}
	ecfg := engine.Config[*lab.Cell]{
		Workers: *workers,
		Policy:  engine.FailFast,
		EventsOf: func(c *lab.Cell) uint64 {
			return c.Undefended.EventsFired + c.Defended.EventsFired
		},
		CountersOf: func(c *lab.Cell) map[string]uint64 {
			// Pure reduction: sum the cell's two runs.
			merged := make(map[string]uint64)
			for _, r := range []*scenario.Result{c.Undefended, c.Defended} {
				if r.Obs == nil {
					continue
				}
				for name, v := range r.Obs.Counters {
					merged[name] += v
				}
			}
			return merged
		},
	}
	if *jsonlFile != "" {
		f, ferr := os.Create(*jsonlFile)
		if ferr != nil {
			return fmt.Errorf("jsonl file: %w", ferr)
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("jsonl file: %w", cerr)
			}
		}()
		ecfg.Results = f
	}

	rep := engine.Sweep(context.Background(), jobs, ecfg)
	if rep.Err != nil {
		p := pairs[rep.ErrIndex]
		return fmt.Errorf("%s × %s: %w", p.attack, p.mech, rep.Err)
	}
	if rep.SinkErr != nil {
		return rep.SinkErr
	}
	cells := make(map[pair]*lab.Cell, len(pairs))
	for i, c := range rep.Results {
		cells[pairs[i]] = c
	}

	fmt.Printf("%-18s", "attack \\ mech")
	for _, m := range mechs {
		fmt.Printf(" %-20s", m.Key)
	}
	fmt.Println()

	agree, total := 0, 0
	for _, a := range attacks {
		if *onlyAttack != "" && a.Key != *onlyAttack {
			continue
		}
		fmt.Printf("%-18s", a.Key)
		for _, m := range mechs {
			cell, ok := cells[pair{a.Key, m.Key}]
			if !ok {
				fmt.Printf(" %-20s", "-")
				continue
			}
			fmt.Printf(" %-20s", cellMark(cell))
			total++
			if cell.Mitigated == cell.Claimed {
				agree++
			}
			if *verbose {
				fmt.Fprintf(os.Stderr, "  %s × %s: claimed=%v measured=%v — %s\n",
					a.Key, m.Key, cell.Claimed, cell.Mitigated, cell.Note)
			}
		}
		fmt.Println()
	}
	fmt.Printf("\nagreement with paper's Table III claims: %d/%d cells\n", agree, total)
	fmt.Println("legend: ✓✓ claimed & mitigated   ·· unclaimed & not mitigated")
	fmt.Println("        ✗C claimed but NOT mitigated   +U mitigated beyond claim")
	if *forensicsFile != "" {
		if werr := writeForensics(*forensicsFile, pairs, rep.Results); werr != nil {
			return werr
		}
	}
	if *stats {
		fmt.Fprintln(os.Stderr, "engine:", rep.Telemetry.String())
	}
	if *obsOn && len(rep.Telemetry.Counters) > 0 {
		fmt.Fprintln(os.Stderr, "obs counters (all cells):")
		names := make([]string, 0, len(rep.Telemetry.Counters))
		for name := range rep.Telemetry.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "  %-31s %d\n", name, rep.Telemetry.Counters[name])
		}
	}
	return nil
}

// pair addresses one (attack, mechanism) grid cell.
type pair struct{ attack, mech string }

// writeForensics dumps every cell's causal attribution reports as one
// JSON document, in grid (row-major) order. Each run is deterministic
// and emission order is fixed, so the bytes are identical at any
// worker count — the file is CI-artifact material.
func writeForensics(path string, pairs []pair, cells []*lab.Cell) (err error) {
	type cellForensics struct {
		Attack     string          `json:"attack"`
		Mechanism  string          `json:"mechanism"`
		Undefended *span.Forensics `json:"undefended,omitempty"`
		Defended   *span.Forensics `json:"defended,omitempty"`
	}
	doc := make([]cellForensics, len(pairs))
	for i, p := range pairs {
		doc[i] = cellForensics{
			Attack:     p.attack,
			Mechanism:  p.mech,
			Undefended: cells[i].Undefended.Forensics,
			Defended:   cells[i].Defended.Forensics,
		}
	}
	f, ferr := os.Create(path)
	if ferr != nil {
		return fmt.Errorf("forensics file: %w", ferr)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("forensics file: %w", cerr)
		}
	}()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func cellMark(c *lab.Cell) string {
	switch {
	case c.Claimed && c.Mitigated:
		return "✓✓"
	case c.Claimed && !c.Mitigated:
		return "✗C " + c.Note
	case !c.Claimed && c.Mitigated:
		return "+U"
	default:
		return "··"
	}
}
