package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced pass's spans in memory: one per call the
// benchmark makes into the program (workload → batch → run or request
// → imported service stage or world epoch), written out as one Chrome
// trace-event file when the benchmark ends. The nil *tracer records
// nothing, so untraced passes pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
	lanes chan int // free lane numbers; a lane is one Chrome trace row
}

// span is one timed call.
type span struct {
	ID, Parent uint64
	Name, Cat  string
	Lane       int
	Start, Dur time.Duration // from tracer start
	Args       map[string]any
}

// newTracer returns a tracer with lanes 1..workers for concurrent calls
// (lane 0 is the benchmark loop's own row).
func newTracer(workers int) *tracer {
	t := &tracer{t0: time.Now(), lanes: make(chan int, workers)}
	for i := 1; i <= workers; i++ {
		t.lanes <- i
	}
	return t
}

// add records a finished span.
func (t *tracer) add(parent uint64, name, cat string, lane int, start, end time.Time, args map[string]any) {
	t.fill(t.reserve(), parent, name, cat, lane, start, end, args)
}

// reserve allocates a span ID for a call whose children finish before
// it does; fill records it under that ID once it ends.
func (t *tracer) reserve() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// fill records a span under an ID from reserve.
func (t *tracer) fill(id, parent uint64, name, cat string, lane int, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Cat: cat, Lane: lane,
		Start: start.Sub(t.t0), Dur: end.Sub(start), Args: args,
	})
}

// lane takes a free lane for one concurrent call; release returns it.
func (t *tracer) lane() int {
	if t == nil {
		return 0
	}
	return <-t.lanes
}

func (t *tracer) release(lane int) {
	if t != nil {
		t.lanes <- lane
	}
}

// chromeEvent is one Chrome trace-event record ("X" complete events
// and "M" thread-name metadata), the format Perfetto and
// chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write renders every span as one Chrome trace-event JSON document at
// path, creating its directory.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })

	events := []chromeEvent{{Name: "thread_name", Ph: "M", Pid: 1, Tid: 0, Args: map[string]any{"name": "benchmark"}}}
	for i := 1; i <= cap(t.lanes); i++ {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: i,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", i)}})
	}
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
