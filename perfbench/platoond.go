package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"platoonsec/internal/engine"
	"platoonsec/internal/service"
)

// The platoond-mix traffic: a closed loop of b.workers clients (each
// posts a request and waits for the reply, as a research script does),
// dispatched mixBatch requests at a time through engine.Sweep. The
// server runs the daemon's shipped defaults except for a cache entry
// bound below the distinct working set, a spill directory, and
// b.workers in-flight slots.
const (
	mixBatch        = 256
	mixCacheEntries = 32
	// mixRecent is the window of recently issued requests that repeats
	// and GETs target: half the cache, so the window stays in memory
	// beside a batch's first-seen requests and spill re-admits.
	mixRecent = 16
	// mixPrefill requests are issued during set-up, so the cache is
	// full and older digests are already spilled when timing starts.
	mixPrefill     = 2*mixCacheEntries + mixRecent
	mixDurationSec = 10
	// mixSettle is the idle time before each calibration run around a
	// batch (calib.go).
	mixSettle = 5 * time.Millisecond
)

// Op mix per mille. No record of how research scripts use platoond
// exists (E19's LOADTEST.json is a 20-scenario pool at 99% hits, the
// miss share this workload must stay away from), so every share is an
// assumption, chosen for the constraint named with it:
//   - 5% first-seen requests (misses that run the engine): misses are
//     the slow tail, so at 5% p99 lies among them and p50 far among
//     hits, well away from a 1% or 50% miss share.
//   - Every first-seen request goes out twice at once. A copy that
//     arrives during the other's simulation waits on it (single-flight
//     dedup); one that arrives after it hits. On one processor about a
//     fifth of the pairs coalesce, which gives the singleflight_wait
//     stage the 20 samples its p50 needs even in a two-second run.
//   - 12% GET by digest: the read path beside the repeat posts, a
//     minority of the hit traffic.
//   - 5% re-requests of evicted digests (spill read-back), the second
//     slowest class, kept small enough that misses and spill reads
//     together stay a tenth of the traffic.
//   - 3% requests the contract rejects with 400: every batch exercises
//     the rejection path.
//   - The rest are repeat posts (memory hits), so hits are above 80%.
const (
	mixNewPM     = 50
	mixGetPM     = 120
	mixEvictedPM = 50
	mixBadPM     = 30
)

var mixAttacks = []string{"", "jamming", "replay", "sybil", "fake-maneuver", "dos",
	"impersonation", "eavesdropping", "sensor-spoofing", "malware"}

func mixWorkload() workload {
	return workload{name: mixName, tailQ: 0.99, vehicles: 5,
		why:   "in-process platoond, closed loop: memory hits and GETs, first-seen misses, spill read-backs of evicted digests, rejected requests",
		setup: func(b *bench) (runner, error) { return newMixRunner(b) }}
}

// pooledReq is one distinct request of the seed's pool.
type pooledReq struct {
	body   []byte             // wire JSON as posted
	norm   service.RunRequest // normalized
	digest string
	vehSec float64
}

// distinctRequest is the k-th distinct request of the seed's pool: a
// small single-platoon run with a drawn seed, size, attack and, for a
// quarter of them, plausibility detection and trust.
func distinctRequest(seed int64, k int) service.RunRequest {
	h := derive(seed, tagMixRequest, uint64(k))
	req := service.RunRequest{
		Seed:        int64(h>>2) | 1,
		DurationSec: mixDurationSec,
		Vehicles:    4 + int(h%3),
		Attack:      mixAttacks[(h>>8)%uint64(len(mixAttacks))],
	}
	if (h>>16)%4 == 0 {
		req.Defense = []string{"vpd-ada", "trust"}
	}
	return req
}

// mixOp is one request of the sequence.
type mixOp struct {
	kind   string // new, repeat, get, evicted, bad
	twin   bool   // post it twice at once
	k      int    // pool index (-1 for bad)
	method string
	path   string
	body   []byte
	want   int    // expected status
	badMsg string // expected error text of a 400
}

// mixGen generates the seed's request sequence, batch by batch.
type mixGen struct {
	seed   int64
	pool   []pooledReq
	issued int // distinct requests issued so far
}

func (g *mixGen) request(k int) (*pooledReq, error) {
	for len(g.pool) <= k {
		req := distinctRequest(g.seed, len(g.pool))
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		norm := req
		if err := norm.Normalize(); err != nil {
			return nil, fmt.Errorf("pool request %d: %w", len(g.pool), err)
		}
		digest, err := service.Digest(&norm)
		if err != nil {
			return nil, err
		}
		g.pool = append(g.pool, pooledReq{body: body, norm: norm, digest: digest,
			vehSec: float64(norm.Vehicles) * norm.DurationSec})
	}
	return &g.pool[k], nil
}

func (g *mixGen) post(kind string, k int) (mixOp, error) {
	p, err := g.request(k)
	if err != nil {
		return mixOp{}, err
	}
	return mixOp{kind: kind, k: k, method: http.MethodPost, path: "/v1/runs", body: p.body, want: 200}, nil
}

func (g *mixGen) get(k int) (mixOp, error) {
	p, err := g.request(k)
	if err != nil {
		return mixOp{}, err
	}
	return mixOp{kind: "get", k: k, method: http.MethodGet, path: "/v1/runs/" + p.digest, want: 200}, nil
}

// prefill is the set-up sequence: the first mixPrefill distinct
// requests, once each.
func (g *mixGen) prefill() ([]mixOp, error) {
	ops := make([]mixOp, mixPrefill)
	for k := range ops {
		op, err := g.post("new", k)
		if err != nil {
			return nil, err
		}
		ops[k] = op
	}
	g.issued = mixPrefill
	return ops, nil
}

// mixKinds returns the kinds of batch n's requests: every batch holds
// each kind's share of mixBatch exactly (rounded), in a seeded order
// that opens with a first-seen request. Fixed counts make every batch
// the same mix, so batch times differ by the host and the requests
// drawn, not by how many misses a batch happened to get.
func mixKinds(seed int64, n int) []string {
	kinds := make([]string, 0, mixBatch)
	for _, c := range []struct {
		kind string
		pm   int
	}{{"new", mixNewPM}, {"get", mixGetPM}, {"evicted", mixEvictedPM}, {"bad", mixBadPM}} {
		for i := 0; i < (mixBatch*c.pm+500)/1000; i++ {
			kinds = append(kinds, c.kind)
		}
	}
	for len(kinds) < mixBatch {
		kinds = append(kinds, "repeat")
	}
	for j := len(kinds) - 1; j > 0; j-- {
		i := int(derive(seed, tagMixShuffle, uint64(n), uint64(j)) % uint64(j+1))
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	first := slices.Index(kinds, "new")
	kinds[0], kinds[first] = kinds[first], kinds[0]
	return kinds
}

// batch returns batch n of the sequence. Repeats, GETs and spill
// re-requests target only requests issued in earlier batches, which
// have completed, so the sequence's outcome never depends on how the
// clients interleave.
func (g *mixGen) batch(n int) ([]mixOp, error) {
	base := g.issued
	ops := make([]mixOp, mixBatch)
	for j, kind := range mixKinds(g.seed, n) {
		pick := derive(g.seed, tagMixOp, uint64(n), uint64(j)) >> 10
		var op mixOp
		var err error
		switch kind {
		case "new":
			k := g.issued
			g.issued++
			op, err = g.post("new", k)
			op.twin = true
		case "get":
			op, err = g.get(base - 1 - int(pick%mixRecent))
		case "evicted":
			op, err = g.post("evicted", int(pick%uint64(base-2*mixCacheEntries)))
		case "bad":
			op = badOp(pick)
		default:
			op, err = g.post("repeat", base-1-int(pick%mixRecent))
		}
		if err != nil {
			return nil, err
		}
		ops[j] = op
	}
	return ops, nil
}

// badOp is a request the contract rejects with 400: an unknown attack,
// or a knob for another attack.
func badOp(pick uint64) mixOp {
	op := mixOp{kind: "bad", k: -1, method: http.MethodPost, path: "/v1/runs", want: 400}
	if pick%2 == 0 {
		op.body = []byte(`{"duration_sec":10,"attack":"warp-drive"}`)
		op.badMsg = "unknown attack"
	} else {
		op.body = []byte(`{"duration_sec":10,"attack":"replay","jammer_power_dbm":30}`)
		op.badMsg = "applies only to the jamming attack"
	}
	return op
}

// mixRunner is one in-process platoond on loopback plus its clients.
type mixRunner struct {
	b         *bench
	gen       *mixGen
	srv       *http.Server
	serveDone chan error
	url       string
	client    *http.Client
	calib     *calibPool
	spill     string
	batchNo   int
	lastTrace uint64 // newest imported server trace ID

	mu       sync.Mutex
	spans    []clientSpan      // traced requests of the current batch
	bodies   map[string]string // digest → SHA-256 of the first body served
	verified map[string]bool   // digests checked against a direct library run
	prefill  []string          // body SHA-256 per prefill request
}

var spillSeq atomic.Int64

func newMixRunner(b *bench) (r *mixRunner, err error) {
	spill := filepath.Join(b.outDir, fmt.Sprintf("spill-%d-%d", os.Getpid(), spillSeq.Add(1)))
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return nil, fmt.Errorf("spill dir: %w", err)
	}
	s, err := service.NewServer(service.Config{Now: time.Now, CacheEntries: mixCacheEntries,
		SpillDir: spill, MaxInflight: b.workers})
	if err != nil {
		os.RemoveAll(spill)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(spill)
		return nil, fmt.Errorf("listen: %w", err)
	}
	r = &mixRunner{
		b:         b,
		gen:       &mixGen{seed: b.seed},
		srv:       &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second},
		serveDone: make(chan error, 1),
		url:       "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxIdleConns: 2 * b.workers, MaxIdleConnsPerHost: 2 * b.workers, DisableCompression: true}},
		calib:    newCalibPool(1, mixSettle),
		spill:    spill,
		bodies:   map[string]string{},
		verified: map[string]bool{},
	}
	go func() { r.serveDone <- r.srv.Serve(ln) }()
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	ops, err := r.gen.prefill()
	if err != nil {
		return nil, err
	}
	r.prefill = make([]string, len(ops))
	outs, _ := r.sweep(ops, nil, 0)
	for i, o := range outs {
		r.prefill[i] = o.bodyHash
	}
	if ref, err := b.pinned(mixName); err != nil {
		return nil, err
	} else if ref != nil {
		for i := range r.prefill {
			if i >= len(ref) || r.prefill[i] != ref[i] {
				b.fail("%s prefill request %d: body %.12s differs from the pinned one", mixName, i, r.prefill[i])
			}
		}
	}
	return r, nil
}

func (r *mixRunner) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.serveDone; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.client.CloseIdleConnections()
	if rerr := os.RemoveAll(r.spill); err == nil {
		err = rerr
	}
	return err
}

func (r *mixRunner) digests() ([]string, error) { return r.prefill, nil }

// opOut is one request's client-side outcome.
type opOut struct {
	latencyMS float64 // +Inf when the request failed
	cache     string  // X-Platoond-Cache of a 200
	bodyHash  string
	vehSec    float64 // simulated vehicle-seconds served
}

// sweep runs ops through the engine with b.workers closed-loop clients.
func (r *mixRunner) sweep(ops []mixOp, tr *tracer, batchSpan uint64) ([]opOut, *engine.Report[struct{}]) {
	outs := make([]opOut, len(ops))
	jobs := make([]engine.Job[struct{}], len(ops))
	for i := range ops {
		i := i
		jobs[i] = func(context.Context) (struct{}, error) {
			outs[i] = r.do(&ops[i], tr, batchSpan)
			return struct{}{}, nil
		}
	}
	rep := engine.Sweep(context.Background(), jobs, engine.Config[struct{}]{Workers: r.b.workers})
	return outs, rep
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	hdr    http.Header
	body   []byte
	err    error
}

// do sends one request (a twin op: the same request twice at once),
// reads the whole reply and checks it.
func (r *mixRunner) do(op *mixOp, tr *tracer, batchSpan uint64) opOut {
	lane := tr.lane()
	defer tr.release(lane)
	id := tr.reserve()
	t0 := time.Now()
	var twin reply
	var wg sync.WaitGroup
	if op.twin {
		wg.Add(1)
		go func() {
			defer wg.Done()
			twin = r.exchange(op)
		}()
	}
	first := r.exchange(op)
	wg.Wait()
	t1 := time.Now()
	// A twinned request is a miss when either copy ran the engine.
	cache := first.hdr.Get("X-Platoond-Cache")
	if op.twin && twin.hdr.Get("X-Platoond-Cache") == "miss" {
		cache = "miss"
	}
	tr.fill(id, batchSpan, op.kind+" "+op.method, "http", lane, t0, t1,
		map[string]any{"status": first.status, "cache": cache, "k": op.k, "twin": op.twin})
	if tr != nil {
		r.mu.Lock()
		r.spans = append(r.spans, clientSpan{id: id, lane: lane, digest: first.hdr.Get("X-Platoond-Digest"), start: t0, end: t1})
		r.mu.Unlock()
	}
	out := opOut{latencyMS: float64(t1.Sub(t0).Nanoseconds()) / 1e6, cache: cache}
	ok := r.check1(op, first)
	if op.twin {
		ok = r.check1(op, twin) && ok
		if ok && cache != "miss" {
			ok = r.failed(op, "neither copy of a first-seen request ran the engine")
		}
	}
	if !ok {
		out.latencyMS = math.Inf(1)
		return out
	}
	if op.k >= 0 {
		out.bodyHash = sha256Hex(first.body)
		out.vehSec = r.gen.pool[op.k].vehSec
	}
	return out
}

// exchange sends op once.
func (r *mixRunner) exchange(op *mixOp) reply {
	r.b.attempted.Add(1)
	var x reply
	x.status, x.hdr, x.body, x.err = r.send(op.method, op.path, op.body)
	return x
}

// wantCache lists the X-Platoond-Cache values a 200 for op may carry.
// A first-seen request runs the engine; its twin may coalesce onto
// that run or arrive after it and hit. Every other request names a
// digest served in an earlier batch, which is in memory or, once
// evicted, in the spill directory, so it must never run again.
func wantCache(op *mixOp) []string {
	switch {
	case op.kind != "new":
		return []string{"hit", "spill"}
	case op.twin:
		return []string{"miss", "dedup", "hit"}
	}
	return []string{"miss"}
}

// failed records a failed check of op.
func (r *mixRunner) failed(op *mixOp, format string, args ...any) bool {
	r.b.fail("%s %s %s: %s", mixName, op.kind, op.method+" "+op.path, fmt.Sprintf(format, args...))
	return false
}

// check1 checks one reply: status, a 400's error text, the digest
// and cache headers, and a body identical to every earlier body of the
// digest.
func (r *mixRunner) check1(op *mixOp, x reply) bool {
	if x.err != nil {
		return r.failed(op, "%v", x.err)
	}
	if x.status != op.want {
		return r.failed(op, "status %d, want %d: %.200s", x.status, op.want, x.body)
	}
	if op.want == 400 {
		var e struct{ Code, Error string }
		if err := json.Unmarshal(x.body, &e); err != nil || e.Code != "bad_request" || !strings.Contains(e.Error, op.badMsg) {
			return r.failed(op, "unexpected rejection %.200s, want %q", x.body, op.badMsg)
		}
		return true
	}
	if c := x.hdr.Get("X-Platoond-Cache"); !slices.Contains(wantCache(op), c) {
		return r.failed(op, "X-Platoond-Cache %q, want one of %q", c, wantCache(op))
	}
	p := &r.gen.pool[op.k]
	if d := x.hdr.Get("X-Platoond-Digest"); d != p.digest {
		return r.failed(op, "digest header %.12s, want %.12s", d, p.digest)
	}
	h := sha256Hex(x.body)
	r.mu.Lock()
	first, seen := r.bodies[p.digest]
	if !seen {
		r.bodies[p.digest] = h
	}
	r.mu.Unlock()
	if seen && first != h {
		return r.failed(op, "body differs from the first body served for digest %.12s", p.digest)
	}
	return true
}

func (r *mixRunner) send(method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, r.url+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, resp.Header, b, err
}

// getJSON fetches one of the server's own JSON reports.
func (r *mixRunner) getJSON(path string, v any) error {
	status, _, body, err := r.send(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(body, v)
}
