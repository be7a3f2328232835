package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"platoonsec/internal/mac"
	"platoonsec/internal/message"
	"platoonsec/internal/phy"
	"platoonsec/internal/scenario"
	"platoonsec/internal/security"
	"platoonsec/internal/service"
	"platoonsec/internal/sim"
)

// Layer probes: direct, timed calls into one layer's public functions,
// with inputs shaped like the workload's (n vehicles, so a broadcast
// fans out to n−1 receivers; the real beacon payload; the default
// channel environment). They run only in the traced pass, after it, so
// they never perturb an end-to-end number. Each reports the median of
// its repeats.

// probeSpacingM is the intra-platoon spacing the probes place
// receivers at (vehicle length plus the default gap).
const probeSpacingM = 24.0

// runProbes runs every layer probe and records one span per probe.
// The service probe's cache spills into a directory under outDir.
func runProbes(tr *tracer, n int, outDir string, values map[string]float64) error {
	if n < 2 {
		n = 2
	}
	probes := []struct {
		name string
		fn   func(n int, values map[string]float64) error
	}{
		{"security", probeSecurity},
		{"sim", probeKernel},
		{"phy", probePhy},
		{"mac", probeMAC},
		{"message", probeMessage},
		{"service", func(n int, values map[string]float64) error { return probeService(n, outDir, values) }},
	}
	for _, p := range probes {
		t0 := time.Now()
		if err := p.fn(n, values); err != nil {
			return fmt.Errorf("%s probe: %w", p.name, err)
		}
		tr.add(0, p.name+" probe", "probe", 0, t0, time.Now(), map[string]any{"vehicles": n})
	}
	return nil
}

// timeEach returns the median time of reps calls of fn, in unit.
func timeEach(reps int, unit time.Duration, fn func(i int) error) (float64, error) {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(t0)) / float64(unit)
	}
	return median(xs), nil
}

// timePerOp returns the median over reps of (time for ops calls)/ops,
// in unit: for calls too short to time one by one.
func timePerOp(reps, ops int, unit time.Duration, fn func(i int) error) (float64, error) {
	total, err := timeEach(reps, unit, func(int) error {
		for i := 0; i < ops; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	})
	return total / float64(ops), err
}

// beacon is the payload platoon members broadcast ten times a second.
func beacon(id, seq uint32) *message.Beacon {
	return &message.Beacon{VehicleID: id, PlatoonID: 1, Seq: seq, TimestampN: int64(seq) * int64(100*sim.Millisecond),
		Role: message.RoleMember, Position: 1000 - float64(id)*probeSpacingM, Speed: 25, Accel: 0.1,
		LeaderSpeed: 25, LeaderAccel: 0.1}
}

func probeSecurity(n int, values map[string]float64) error {
	rng := sim.NewStream(1, "perfbench-security")
	ca, err := security.NewCA(rng)
	if err != nil {
		return err
	}
	id, err := ca.Issue(2, 0, 1<<62, rng)
	if err != nil {
		return err
	}
	signer := security.NewSigner(id)
	const reps = 200
	envs := make([]*message.Envelope, reps)
	if values["security.seal_us"], err = timeEach(reps, time.Microsecond, func(i int) error {
		envs[i] = signer.Seal(beacon(2, uint32(i+1)).Marshal())
		return nil
	}); err != nil {
		return err
	}
	v := security.NewVerifier(ca, nil)
	if values["security.verify_us"], err = timeEach(reps, time.Microsecond, func(i int) error {
		_, err := v.Verify(envs[i], sim.Second)
		return err
	}); err != nil {
		return err
	}
	receivers := make([]*security.Verifier, n-1)
	for i := range receivers {
		receivers[i] = security.NewVerifier(ca, nil)
	}
	if values["security.verify_fanout_us"], err = timeEach(30, time.Microsecond, func(i int) error {
		for _, rv := range receivers {
			if _, err := rv.Verify(envs[i], sim.Second); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	values["security.cert_verify_us"], err = timeEach(reps, time.Microsecond, func(int) error {
		return ca.Verify(id.Cert, sim.Second)
	})
	return err
}

func probeKernel(_ int, values map[string]float64) error {
	const events = 20000
	noop := func() {}
	var err error
	values["sim.event_ns"], err = timeEach(5, time.Nanosecond, func(int) error {
		k := sim.NewKernel(1)
		for i := 0; i < events; i++ {
			k.At(sim.Time(i)*sim.Microsecond, "probe", noop)
		}
		return k.Run(events * sim.Microsecond)
	})
	values["sim.event_ns"] /= events
	return err
}

func probePhy(n int, values map[string]float64) error {
	env := phy.DefaultEnvironment()
	ch := phy.NewChannel(env, sim.NewStream(1, "perfbench-phy"))
	frame := len(beacon(2, 1).Marshal()) + 72 // beacon in a signed envelope
	var sink float64
	var err error
	values["phy.rx_ns"], err = timePerOp(5, 10000, time.Nanosecond, func(int) error {
		for r := 1; r < n; r++ {
			rx := ch.RxPowerDBm(20, float64(r)*probeSpacingM)
			sink += phy.PER(phy.SINRdB(rx, env.NoiseFloorDBm, env.NoiseFloorDBm), frame)
		}
		return nil
	})
	values["phy.rx_ns"] /= float64(n - 1)
	_ = sink
	return err
}

func probeMAC(n int, values map[string]float64) error {
	k := sim.NewKernel(1)
	ch := phy.NewChannel(phy.DefaultEnvironment(), k.Stream("phy"))
	bus := mac.NewBus(k, ch, mac.DefaultConfig())
	for i := 0; i < n; i++ {
		pos := float64(n-i) * probeSpacingM
		if err := bus.Attach(mac.NodeID(i+1), func() float64 { return pos }, 20, func(mac.Rx) {}); err != nil {
			return err
		}
	}
	payload := beacon(1, 1).Marshal()
	var err error
	values["mac.broadcast_us"], err = timeEach(500, time.Microsecond, func(int) error {
		if err := bus.Send(1, payload); err != nil {
			return err
		}
		return k.Run(k.Now() + 10*sim.Millisecond)
	})
	return err
}

func probeMessage(_ int, values map[string]float64) error {
	b := beacon(2, 7)
	sig := make([]byte, 64)
	var buf, env []byte
	var e message.Envelope
	var got message.Beacon
	var err error
	values["message.envelope_roundtrip_ns"], err = timePerOp(5, 20000, time.Nanosecond, func(int) error {
		buf = b.AppendTo(buf[:0])
		env = (&message.Envelope{SenderID: 2, CertSerial: 3, Payload: buf, Sig: sig}).AppendTo(env[:0])
		if err := message.DecodeEnvelope(env, &e); err != nil {
			return err
		}
		return message.DecodeBeacon(e.Payload, &got)
	})
	return err
}

func probeService(n int, outDir string, values map[string]float64) error {
	raw, err := json.Marshal(service.RunRequest{Seed: 7, DurationSec: 10, Vehicles: n, Attack: "replay",
		Defense: []string{"trust", "vpd-ada"}})
	if err != nil {
		return err
	}
	const reps = 500
	reqs := make([]service.RunRequest, reps)
	for i := range reqs {
		if err := json.Unmarshal(raw, &reqs[i]); err != nil {
			return err
		}
	}
	if values["service.normalize_us"], err = timeEach(reps, time.Microsecond, func(i int) error {
		return reqs[i].Normalize()
	}); err != nil {
		return err
	}
	if values["service.digest_us"], err = timeEach(reps, time.Microsecond, func(i int) error {
		_, err := service.Digest(&reqs[i])
		return err
	}); err != nil {
		return err
	}

	// A full cache (the mix's entry bound) of the request's result body
	// with a spill directory, as platoond-mix runs it: gets hit, and
	// every put evicts one entry and writes its spill file.
	canon, err := service.CanonicalBytes(&reqs[0])
	if err != nil {
		return err
	}
	opts, err := reqs[0].Options(1, 1, nil)
	if err != nil {
		return err
	}
	res, err := scenario.Run(opts)
	if err != nil {
		return err
	}
	body, err := json.Marshal(res)
	if err != nil {
		return err
	}
	entry := func(i int) *service.Entry {
		return &service.Entry{Digest: fmt.Sprintf("%064x", i), Schema: service.SchemaVersion, Kind: "run",
			Request: canon, Body: body}
	}
	spill := filepath.Join(outDir, fmt.Sprintf("probe-spill-%d", os.Getpid()))
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return fmt.Errorf("spill dir: %w", err)
	}
	defer os.RemoveAll(spill)
	c := service.NewCache(mixCacheEntries, 256<<20, spill)
	keys := make([]string, mixCacheEntries)
	for i := range keys {
		e := entry(i)
		keys[i] = e.Digest
		c.Put(e)
	}
	if values["service.cache_get_us"], err = timePerOp(5, 2000, time.Microsecond, func(i int) error {
		if e, _ := c.Get(keys[i%mixCacheEntries]); e == nil {
			return fmt.Errorf("cache probe missed")
		}
		return nil
	}); err != nil {
		return err
	}
	const puts = 500
	entries := make([]*service.Entry, 5*puts)
	for i := range entries {
		entries[i] = entry(mixCacheEntries + i)
	}
	next := 0
	if values["service.cache_put_us"], err = timePerOp(5, puts, time.Microsecond, func(int) error {
		c.Put(entries[next])
		next++
		return nil
	}); err != nil {
		return err
	}
	if st := c.Stats(); st.SpillWrites != uint64(len(entries)) || st.SpillErrors != 0 {
		return fmt.Errorf("cache probe: %d puts wrote %d spill files (%d errors)", len(entries), st.SpillWrites, st.SpillErrors)
	}
	return nil
}
