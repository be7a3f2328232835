// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is intentionally single-goroutine: all events execute in
// timestamp order on the goroutine that calls Run, which makes every
// simulation a pure function of (initial state, seed). Parallelism belongs
// one level up, across independent runs (see internal/scenario).
//
// Time is modelled as sim.Time, a nanosecond count from simulation start.
// Components obtain randomness through named Streams derived from the
// kernel seed, so adding a new consumer of randomness does not perturb the
// draws seen by existing components.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"platoonsec/internal/obs"
)

// Time is a simulation timestamp: nanoseconds since simulation start.
type Time int64

// Common conversion helpers.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts t to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time {
	if math.IsNaN(s) || math.IsInf(s, 0) {
		return 0
	}
	return Time(s * float64(Second))
}

// FromSecondsChecked converts floating-point seconds to a Time,
// reporting ok false when s is not finite or its nanoseconds do not
// fit in a Time (beyond about ±292 years), where FromSeconds would
// silently wrap.
func FromSecondsChecked(s float64) (t Time, ok bool) {
	ns := s * float64(Second)
	if math.IsNaN(ns) || ns < -0x1p63 || ns >= 0x1p63 {
		return 0, false
	}
	return Time(ns), true
}

// FromDuration converts a time.Duration to a Time.
func FromDuration(d time.Duration) Time { return Time(d) }

func (t Time) String() string { return t.Duration().String() }

// Event is a unit of scheduled work.
type Event struct {
	// At is the activation timestamp.
	At Time
	// Name labels the event for tracing; it does not affect execution.
	Name string
	// Fn runs when the event fires. It may schedule further events.
	Fn func()

	seq       uint64 // tie-break: FIFO among equal timestamps
	idx       int    // heap index, -2 once fired or removed
	gen       uint32 // recycle generation; stale Handles compare unequal
	cancelled bool
}

// Handle allows a scheduled event to be cancelled before it fires. Events
// are recycled through a kernel-local free list after they fire, so a
// Handle pins the generation it was issued for: a Handle held across the
// event's firing observes "not pending" forever, even after the Event
// struct is reused for an unrelated schedule.
type Handle struct {
	ev  *Event
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel reports whether the event was
// still pending.
func (h Handle) Cancel() bool {
	if h.ev == nil || h.ev.gen != h.gen || h.ev.cancelled || h.ev.idx == -2 {
		return false
	}
	h.ev.cancelled = true
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.cancelled && h.ev.idx != -2
}

// eventQueue is a binary min-heap ordered by (At, seq). The sift
// routines are hand-rolled rather than delegated to container/heap: the
// stdlib interface forces every push and pop through an `any` box and
// four indirect method calls per level, which is measurable on the
// kernel step path. (At, seq) is a strict total order — seq is unique —
// so pop order is identical to the container/heap implementation.
type eventQueue []*Event

func (q eventQueue) less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}

func (q *eventQueue) push(ev *Event) {
	ev.idx = len(*q)
	*q = append(*q, ev)
	q.up(ev.idx)
}

// popMin removes and returns the earliest event, marking it fired.
func (q *eventQueue) popMin() *Event {
	old := *q
	ev := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[0].idx = 0
	old[n] = nil
	*q = old[:n]
	if n > 0 {
		q.down(0)
	}
	ev.idx = -2 // fired or removed
	return ev
}

func (q eventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q eventQueue) down(i int) {
	n := len(q)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && q.less(right, left) {
			min = right
		}
		if !q.less(min, i) {
			break
		}
		q.swap(min, i)
		i = min
	}
}

// ErrStopped is returned by Run when the simulation was stopped early via
// Kernel.Stop.
var ErrStopped = errors.New("sim: stopped")

// Kernel is the discrete-event scheduler. The zero value is not usable;
// construct with NewKernel.
type Kernel struct {
	now     Time
	queue   eventQueue
	seq     uint64
	seed    int64
	stopped bool
	horizon Time
	fired   uint64
	streams map[string]*Stream
	rec     obs.Recorder

	// free is the Event recycle list. Events return here after firing
	// (or after being popped cancelled), so a steady-state simulation
	// schedules without allocating; Handle generations make reuse safe.
	free []*Event
}

// NewKernel returns a kernel whose random streams derive from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		seed:    seed,
		horizon: math.MaxInt64,
		streams: make(map[string]*Stream),
	}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// SetRecorder attaches an observability recorder; nil detaches it.
// When attached, every event fire is offered to the recorder at
// LevelTrace with the event's Name as Detail. Recording never draws
// randomness or schedules events, so attaching a recorder cannot
// change simulation behaviour.
func (k *Kernel) SetRecorder(rec obs.Recorder) { k.rec = rec }

// Recorder returns the attached recorder (nil when observability is
// off). Components built around the kernel inherit it from here.
func (k *Kernel) Recorder() obs.Recorder { return k.rec }

// Seed returns the kernel seed.
func (k *Kernel) Seed() int64 { return k.seed }

// EventsFired returns the number of events executed so far.
func (k *Kernel) EventsFired() uint64 { return k.fired }

// Pending returns the number of queued (uncancelled) events.
func (k *Kernel) Pending() int {
	n := 0
	for _, ev := range k.queue {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

// Stream returns the named deterministic random stream, creating it on
// first use. The same (seed, name) pair always yields the same sequence.
func (k *Kernel) Stream(name string) *Stream {
	if s, ok := k.streams[name]; ok {
		return s
	}
	s := NewStream(k.seed, name)
	k.streams[name] = s
	return s
}

// allocEvent takes an Event from the free list, or heap-allocates one
// when the list is empty (cold: only while the pending-event high-water
// mark is still rising).
func (k *Kernel) allocEvent() *Event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return ev
	}
	//platoonvet:alloc-ok pool miss is cold: allocates only while the pending-event high-water mark rises
	return &Event{}
}

// recycleEvent returns a fired (or popped-cancelled) event to the free
// list. The generation bump invalidates every Handle issued for the
// completed schedule.
func (k *Kernel) recycleEvent(ev *Event) {
	ev.gen++
	ev.Name = ""
	ev.Fn = nil
	ev.cancelled = false
	k.free = append(k.free, ev)
}

// At schedules fn to run at absolute time at. Scheduling in the past (or at
// the current instant from within an event) clamps to the current time and
// runs after all already-queued events for that instant.
//
//platoonvet:hotpath hot sink -- event handlers schedule from inside events; fn runs on the kernel loop
func (k *Kernel) At(at Time, name string, fn func()) Handle {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	if at < k.now {
		at = k.now
	}
	ev := k.allocEvent()
	ev.At = at
	ev.Name = name
	ev.Fn = fn
	ev.seq = k.seq
	k.seq++
	k.queue.push(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time.
//
//platoonvet:hotpath hot sink -- delegates to At; fn runs on the kernel loop
func (k *Kernel) After(d Time, name string, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, name, fn)
}

// Every schedules fn at period intervals, starting at start, until the
// simulation ends or the returned Ticker is stopped. A non-positive period
// panics: a zero-period ticker would deadlock simulated time.
//
//platoonvet:hotpath sink -- fn runs once per period on the kernel loop
func (k *Kernel) Every(start, period Time, name string, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every(%q) with non-positive period %v", name, period))
	}
	t := &Ticker{k: k, period: period, name: name, fn: fn}
	// The method value t.tick allocates a bound closure; building it once
	// here (instead of at every reschedule inside tick) keeps steady-state
	// ticking allocation-free.
	t.tickFn = t.tick
	t.handle = k.At(start, name, t.tickFn)
	return t
}

// Ticker is a repeating event created by Kernel.Every.
type Ticker struct {
	k       *Kernel
	period  Time
	name    string
	fn      func()
	tickFn  func() // cached t.tick method value, built once in Every
	handle  Handle
	stopped bool
	ticks   uint64
}

// tick fires the ticker's callback and reschedules the next period.
//
//platoonvet:hotpath -- runs once per ticker period for every ticker
func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.ticks++
	//platoonvet:alloc-ok the ticker's callback is by definition a func value; one indirect call per tick is the scheduling contract
	t.fn()
	if !t.stopped {
		t.handle = t.k.After(t.period, t.name, t.tickFn)
	}
}

// Stop halts the ticker; the in-flight event, if any, is cancelled.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

// Ticks returns how many times the ticker has fired.
func (t *Ticker) Ticks() uint64 { return t.ticks }

// Stop ends the simulation: Run returns ErrStopped after the current event
// completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in timestamp order until the queue empties, until
// simulated time would exceed until, or until Stop is called. On a horizon
// exit the clock is left at until. Run may be called again to continue.
func (k *Kernel) Run(until Time) error {
	k.horizon = until
	for len(k.queue) > 0 {
		if k.stopped {
			k.stopped = false
			return ErrStopped
		}
		next := k.queue[0]
		if next.At > until {
			k.now = until
			return nil
		}
		k.queue.popMin()
		if next.cancelled {
			k.recycleEvent(next)
			continue
		}
		k.now = next.At
		k.fired++
		//platoonvet:alloc-ok recorder is nil unless observability is on; Enabled gates the Record call
		if k.rec != nil && k.rec.Enabled(obs.LayerKernel, obs.LevelTrace) {
			//platoonvet:alloc-ok recorder dispatch runs only when kernel tracing is enabled
			k.rec.Record(obs.Record{
				AtNS:   int64(k.now),
				Layer:  obs.LayerKernel,
				Level:  obs.LevelTrace,
				Kind:   "sim.event",
				Detail: next.Name,
			})
		}
		fn := next.Fn
		k.recycleEvent(next)
		//platoonvet:alloc-ok dispatching scheduled closures is the kernel's entire job
		fn()
	}
	if k.now < until {
		k.now = until
	}
	return nil
}
