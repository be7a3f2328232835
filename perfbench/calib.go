package main

import (
	"crypto/ed25519"
	"slices"
	"time"
)

// The host the benchmark runs on is shared, and its speed is not
// steady. Measured on an Intel Xeon (2.1 GHz, two vCPUs, GOMAXPROCS 1):
// one process ran the same world-ring job 500 times in a row in 108 to
// 283 ms, in slow spells of ten to forty seconds, with user CPU time
// equal to wall time throughout. A tableII-sweep run and a loop of
// Ed25519 verifies slowed with it by up to 1.8 times, while a SHA-256
// loop (which runs on the processor's dedicated SHA instructions)
// stayed within 10%: the program's kernels share the core's execution
// units with other tenants' threads. A spell can cover a whole run,
// and in two sets of ten runs the median world-ring latency of a run
// spread by more than half of the median.
//
// So the benchmark times a fixed calibration kernel of its own just
// before and just after every measured unit (a simulation run, a
// platoond batch, a set-up) and reports the unit's time rescaled to
// the kernel's speed on that machine while quiet:
//
//	scaled = wall × calibRefNS / mean(kernel before, kernel after)
//
// Every end-to-end timing is such a scaled time. Over 100 seconds, the
// rescaling cut the spread of a world-ring job's median time between
// blocks of 20 runs from 0.17 to 0.09 (quartile distance over the
// median), and a tableII-sweep job's from 0.13 to 0.03. It cancels most of a spell, not
// all of it (the world slows a little more than the kernel does), so a
// pass also reports from its fastest quarter of batches
// (fastestQuarter). The per-layer timings of the traced pass are wall
// times, not scaled.

// calibRefNS is the calibration kernel's time on that machine while no
// other work contended for it (the fastest tenth of its runs).
const calibRefNS = 3.3e5

// calibKernel is a fixed amount of work of the kinds the program does:
// Ed25519 verifies (the security layer's cost), hash-map updates and a
// float sort (branchy, allocation-free code like the simulator's).
type calibKernel struct {
	pub  ed25519.PublicKey
	msg  []byte
	sig  []byte
	m    map[uint64]int
	xs   []float64
	sink int
}

func newCalibKernel() *calibKernel {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	msg := []byte("perfbench calibration: one platoon beacon's worth of bytes")
	return &calibKernel{pub: priv.Public().(ed25519.PublicKey), msg: msg,
		sig: ed25519.Sign(priv, msg), m: make(map[uint64]int, 4096), xs: make([]float64, 2048)}
}

// run times the kernel: the fastest of three passes, so that a
// garbage-collection slice or an interrupt landing in one of them does
// not count, while a contention spell, which slows all three, does.
func (k *calibKernel) run() float64 {
	best := k.pass()
	for i := 0; i < 2; i++ {
		best = min(best, k.pass())
	}
	return best
}

// pass times one pass of the kernel, in nanoseconds.
func (k *calibKernel) pass() float64 {
	t0 := time.Now()
	for i := 0; i < 3; i++ {
		if ed25519.Verify(k.pub, k.msg, k.sig) {
			k.sink++
		}
	}
	clear(k.m)
	s := uint64(88172645463325252)
	for i := 0; i < 3000; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		k.m[s%4096]++
	}
	for i := range k.xs {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		k.xs[i] = float64(s % 100000)
	}
	slices.Sort(k.xs)
	k.sink += len(k.m) + int(k.xs[0])
	return float64(time.Since(t0).Nanoseconds())
}

// calibPool hands each concurrent worker a kernel of its own.
type calibPool struct {
	kernels chan *calibKernel
	// settle is how long the caller idles before each kernel run, so
	// that goroutines its measured work left running (platoond's
	// connection handlers, a garbage collection in progress) finish
	// first instead of slowing the kernel.
	settle time.Duration
}

func newCalibPool(workers int, settle time.Duration) *calibPool {
	p := &calibPool{kernels: make(chan *calibKernel, workers), settle: settle}
	for i := 0; i < workers; i++ {
		p.kernels <- newCalibKernel()
	}
	return p
}

// time runs f between two kernel runs and returns f's wall time in
// nanoseconds and that time scaled to the kernel's reference speed.
func (p *calibPool) time(f func()) (wall, scaled float64) {
	k := <-p.kernels
	defer func() { p.kernels <- k }()
	before := p.run(k)
	t0 := time.Now()
	f()
	wall = float64(time.Since(t0).Nanoseconds())
	return wall, scale(wall, before, p.run(k))
}

func (p *calibPool) run(k *calibKernel) float64 {
	if p.settle > 0 {
		time.Sleep(p.settle)
	}
	return k.run()
}

// scale rescales a wall time measured between two kernel passes to
// the kernel's reference speed.
func scale(wall, before, after float64) float64 {
	return wall * calibRefNS / ((before + after) / 2)
}
