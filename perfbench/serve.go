package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"inputtune/internal/benchmarks/binpack"
	"inputtune/internal/benchmarks/clustering"
	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/core"
	"inputtune/internal/engine"
	"inputtune/internal/exp"
	"inputtune/internal/fleet"
	"inputtune/internal/rng"
	"inputtune/internal/serve"
)

// serveSpec is one serving workload.
type serveSpec struct {
	// fleet serves through fleet.NewHandler over two in-process replicas
	// (the `inputtuned -fleet 2` layout); otherwise serve.NewHandler.
	fleet bool
	wire  serve.Wire
	// models are the Table-1 cases whose trained models are served.
	models []string
	// scale trains the served models single-threaded: set-up then times
	// the training work, not how two busy processors share it.
	scale exp.Scale
	// inputs generates the distinct request inputs (benchmark, input).
	inputs func(seed uint64, tiny bool) []servedInput
	// stream maps request index → distinct input; nil means every
	// request within one model generation is distinct (fresh).
	stream func(seed uint64, n, distinct int) []uint16
	// rate is the fixed offered rate p50_us and cpu_us_per_op are
	// measured at. The generator's two connections carry one request at
	// a time each, so when the machine slows down (on the reference VM the
	// CPU cost of a request doubled for tens of minutes at a time),
	// requests queue for a connection and latency grows far faster than
	// the work. In such a period serve-fresh's p50 spread over ten seeds
	// was 0.48 of its median at 4000/s and 0.12-0.21 at 2000/s, and
	// serve-hot's (JSON, more CPU per request) reached 0.50 at 2000/s.
	rate float64
	// reloadEvery fires a Service.Load hot reload at every request index
	// ≡ reloadEvery/2 (mod reloadEvery); 0 = none.
	reloadEvery int
	// modelSeed is the seed the served models are trained with. The model
	// is part of the deployment under test and --seed generates only the
	// requests, so a serve run's figures do not move with one seed's
	// training draw.
	modelSeed uint64
}

type servedInput struct {
	benchmark string
	in        core.Input
}

var serveFresh = serveSpec{
	fleet:  true,
	wire:   serve.WireBinary,
	models: []string{"clustering2", "binpacking"},
	scale:  exp.Scale{TrainInputs: 60, TestInputs: 60, K1: 6, TunerPop: 8, TunerGens: 6},
	inputs: freshInputs,
	rate:   2000,
	// With seed 2 both production classifiers key on a continuous
	// feature (range), so distinct inputs give distinct decision keys. The
	// repository's usual seed 42 trains a clustering classifier keyed on a
	// coarse feature (15 keys over 600 inputs): half the requests would
	// hit the cache this workload exists to bypass.
	modelSeed: 2,
}

var serveHot = serveSpec{
	wire:        serve.WireJSON,
	models:      []string{"sort2", "binpacking"},
	scale:       exp.Scale{TrainInputs: 60, TestInputs: 60, K1: 6, TunerPop: 8, TunerGens: 6},
	inputs:      hotInputs,
	stream:      hotStream,
	rate:        1000,
	reloadEvery: 8000,
	modelSeed:   42,
}

// tinyScale trains the served models in the self-test.
var tinyScale = exp.Scale{TrainInputs: 16, TestInputs: 16, K1: 2, TunerPop: 4, TunerGens: 2}

// freshPool is how many distinct large inputs serve-fresh generates. The
// request stream walks the pool and starts a new model generation on both
// replicas each time it wraps, so no input repeats within a generation.
const freshPool = 1200

// freshInputs are large clustering and binpacking inputs, in turn. Sort
// is left out: its production classifiers often key on features whose
// values collide across distinct large lists (one seed's 400 lists had 12
// distinct decision keys), which would put cache hits into the workload
// meant to bypass the cache.
func freshInputs(seed uint64, tiny bool) []servedInput {
	per := freshPool / 2
	if tiny {
		per = 30
	}
	pts := clustering.GenerateMix(clustering.MixOptions{Count: per, MinSize: 500, MaxSize: 2000, Seed: seed})
	items := binpack.GenerateMix(binpack.MixOptions{Count: per, MinSize: 512, MaxSize: 2048, Seed: seed + 1})
	out := make([]servedInput, 0, 2*per)
	for i := 0; i < per; i++ {
		out = append(out, servedInput{"clustering", pts[i]}, servedInput{"binpacking", items[i]})
	}
	return out
}

// hotPerBenchmark is how many small inputs of each benchmark the hot set
// holds. Request cost follows input size, so the hot set is large enough
// that its mean size barely moves with the seed (over five seeds the mean
// request body stayed within 7%), and small enough that nearly every
// request hits the decision cache.
const hotPerBenchmark = 64

// hotInputs is a small hot set of small sort and binpacking inputs.
func hotInputs(seed uint64, tiny bool) []servedInput {
	lists := sortbench.GenerateMix(sortbench.MixOptions{Count: hotPerBenchmark, MinSize: 64, MaxSize: 256, Seed: seed})
	items := binpack.GenerateMix(binpack.MixOptions{Count: hotPerBenchmark, MinSize: 64, MaxSize: 128, Seed: seed + 1})
	var out []servedInput
	for i := range lists {
		out = append(out, servedInput{"sort", lists[i]}, servedInput{"binpacking", items[i]})
	}
	return out
}

// hotStream draws each request uniformly from the hot set.
func hotStream(seed uint64, n, distinct int) []uint16 {
	r := rng.New(seed + 3)
	s := make([]uint16, n)
	for i := range s {
		s[i] = uint16(r.Intn(distinct))
	}
	return s
}

// servedSetup is everything a serve workload prepares before load.
type servedSetup struct {
	artifacts map[string][]byte      // benchmark → SaveModel bytes
	models    map[string]*core.Model // loaded back from the artifacts
	trained   map[string]*core.Model // as TrainModel returned them
	cases     []exp.Case
	inputs    []servedInput
	reqs      []request // one per distinct input
	train     time.Duration
}

// setupServe trains and saves every served model, generates and encodes
// the request inputs and labels each one with the offline classifier.
func setupServe(spec serveSpec, sc exp.Scale, seed uint64, tiny bool) (*servedSetup, error) {
	s := &servedSetup{artifacts: map[string][]byte{}, models: map[string]*core.Model{}, trained: map[string]*core.Model{}}
	for _, name := range spec.models {
		c := exp.BuildCase(name, sc)
		t0 := time.Now()
		m := core.TrainModel(c.Prog, c.Train, trainOptions(name, sc))
		s.train += time.Since(t0)
		var art bytes.Buffer
		if err := core.SaveModel(m, &art); err != nil {
			return nil, fmt.Errorf("saving %s: %w", name, err)
		}
		loaded, err := core.LoadModel(c.Prog, bytes.NewReader(art.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", name, err)
		}
		s.artifacts[c.Prog.Name()] = art.Bytes()
		s.models[c.Prog.Name()] = loaded
		s.trained[c.Prog.Name()] = m
		s.cases = append(s.cases, c)
	}
	s.inputs = spec.inputs(seed, tiny)
	for _, si := range s.inputs {
		m := s.models[si.benchmark]
		want := m.Production.ClassifyInput(m.Program.Features(), si.in, nil)
		body, err := encodeBody(spec.wire, si)
		if err != nil {
			return nil, err
		}
		s.reqs = append(s.reqs, request{body: body, want: want})
	}
	return s, nil
}

func encodeBody(wire serve.Wire, si servedInput) ([]byte, error) {
	var b bytes.Buffer
	if wire == serve.WireBinary {
		if err := serve.EncodeBinaryRequest(&b, si.benchmark, si.in); err != nil {
			return nil, err
		}
		return b.Bytes(), nil
	}
	c, err := serve.LookupCodec(si.benchmark)
	if err != nil {
		return nil, err
	}
	raw, err := c.EncodeJSON(si.in)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Benchmark string          `json:"benchmark"`
		Input     json.RawMessage `json:"input"`
	}{si.benchmark, raw})
}

// stack is one running server: services, optional fleet router, HTTP.
type stack struct {
	spec     serveSpec
	setup    *servedSetup
	services []*serve.Service
	replicas []*timedReplica
	router   *fleet.Router
	handler  *timedHandler
	srv      *http.Server
	served   chan error
	url      string
}

// newStack builds the services (one, or two fleet replicas) with every
// model loaded. With listen it also serves HTTP on a loopback port.
func newStack(spec serveSpec, s *servedSetup, listen bool) (*stack, error) {
	st := &stack{spec: spec, setup: s}
	n := 1
	if spec.fleet {
		n = 2
	}
	for i := 0; i < n; i++ {
		svc := serve.NewService(serve.BuiltinRegistry(), serve.Options{})
		for _, name := range sortedKeys(s.artifacts) {
			if _, err := svc.Load(s.artifacts[name]); err != nil {
				return nil, fmt.Errorf("loading %s: %w", name, err)
			}
		}
		st.services = append(st.services, svc)
	}
	var h http.Handler
	if spec.fleet {
		// Under load the replicas are the plain LocalReplicas; the layer
		// pass (no listener, one goroutine) times each call into them.
		reps := make([]fleet.Replica, n)
		for i, svc := range st.services {
			reps[i] = fleet.NewLocalReplica(fmt.Sprintf("replica-%d", i), svc)
			if !listen {
				tr := &timedReplica{Replica: reps[i]}
				st.replicas = append(st.replicas, tr)
				reps[i] = tr
			}
		}
		st.router = fleet.NewRouter(reps, fleet.Options{})
		h = fleet.NewHandler(st.router)
	} else {
		h = serve.NewHandler(st.services[0])
	}
	st.handler = &timedHandler{h: h}
	if !listen {
		return st, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv = &http.Server{Handler: st.handler}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.url = "http://" + ln.Addr().String() + "/v1/classify"
	return st, nil
}

func (st *stack) close() {
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = st.srv.Shutdown(ctx) // on timeout the process is exiting anyway
		<-st.served
	}
	if st.router != nil {
		_ = st.router.Close(context.Background())
	}
	for _, svc := range st.services {
		svc.Close()
	}
}

func (st *stack) cacheStats() (hits, lookups uint64) {
	for _, svc := range st.services {
		cs := svc.CacheStats()
		hits += cs.Hits
		lookups += cs.Hits + cs.Misses
	}
	return hits, lookups
}

// timedHandler records the wall time of every ServeHTTP call while on.
type timedHandler struct {
	h  http.Handler
	on atomic.Bool
	spans
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t.add(micros(time.Since(t0)))
}

// timedReplica records the wall time of the router's latest call into a
// replica's ClassifyFrame (the replica's service). The layer pass reads
// it after each Route on the same goroutine.
type timedReplica struct {
	fleet.Replica
	last float64 // µs
}

func (t *timedReplica) ClassifyFrame(frame []byte) (*serve.Decision, error) {
	t0 := time.Now()
	d, err := t.Replica.ClassifyFrame(frame)
	t.last = micros(time.Since(t0))
	return d, err
}

// spans is a concurrency-safe list of span durations in µs.
type spans struct {
	mu sync.Mutex
	us []float64
}

func (s *spans) add(us float64) {
	s.mu.Lock()
	s.us = append(s.us, us)
	s.mu.Unlock()
}

func (s *spans) take() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.us
	s.us = nil
	return out
}

// window is what one fixed-rate load phase measured, summarised as it
// ends: the per-request arrays are dropped, so the benchmark's own memory
// does not grow the live heap it measures. Times are in µs.
type window struct {
	traced         bool
	sent, failed   int
	p50, p90, p99  float64       // latency from the due time
	lag50, lag99   float64       // the generator's own lateness
	wait50, wait99 float64       // wait for a free connection
	send50         float64       // send → response read
	handler50      float64       // ServeHTTP span (traced windows)
	cpu            time.Duration // process CPU time: server and load generator
	heapMB         float64       // peak live heap
}

func summarise(st *step, handler []float64, traced bool) window {
	lat := st.latencies()
	return window{
		traced: traced, sent: st.sent, failed: st.failed,
		p50: quantile(lat, 0.5), p90: quantile(lat, 0.9), p99: quantile(lat, 0.99),
		lag50: quantile(st.lagUs, 0.5), lag99: quantile(st.lagUs, 0.99),
		wait50: quantile(st.waitUs, 0.5), wait99: quantile(st.waitUs, 0.99),
		send50: quantile(st.sendUs, 0.5), handler50: quantile(handler, 0.5),
	}
}

func runServe(spec serveSpec, cfg runConfig) (*outcome, error) {
	sc := spec.scale
	if cfg.Tiny {
		// Slow enough for the race detector's build.
		sc, spec.rate = tinyScale, 200
	}
	sc.Seed = spec.modelSeed
	out := newOutcome()

	// Set-up, nine times: the first warms the process up (lazy package
	// state, heap growth) and the median of the other eight is setup_s.
	// Every repetition must match the first byte for byte (artifacts,
	// request bodies, offline labels).
	var setups, trains []float64
	var first, s *servedSetup
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		si, err := setupServe(spec, sc, cfg.Seed, cfg.Tiny)
		if err != nil {
			return nil, err
		}
		st, err := newStack(spec, si, false)
		if err != nil {
			return nil, err
		}
		st.close()
		if first == nil {
			first = si
		} else {
			setups = append(setups, time.Since(t0).Seconds())
			trains = append(trains, si.train.Seconds())
			out.attempted++
			if digest(si) != digest(first) {
				out.mismatch("set-up %d: SaveModel bytes, labels or bodies differ from set-up 0", i)
			}
		}
		s = si
	}
	speedup, sat := servedQuality(s, sc)
	out.set("setup_s", median(setups), "s")
	out.set("train_s", median(trains), "s")
	out.set("speedup_x", speedup, "x")
	out.set("satisfaction", sat, "fraction")
	bodyBytes := 0
	for _, r := range s.reqs {
		bodyBytes += len(r.body)
	}
	out.note("served models (training seed %d): speedup %.4f satisfaction %.4f; set-ups %v", spec.modelSeed, speedup, sat, fmtList(setups))
	out.note("%d distinct requests, mean body %.0f bytes", len(s.reqs), float64(bodyBytes)/float64(len(s.reqs)))
	// Only the bodies and labels are needed from here on; dropping the
	// rest keeps the live heap, and so GC work under load, small.
	first, s.inputs, s.cases, s.trained = nil, nil, nil, nil

	st, err := newStack(spec, s, true)
	if err != nil {
		return nil, err
	}
	defer st.close()
	g := newLoadgen(st.url, spec.wire)
	defer g.close()

	// The request stream. serve-hot draws each request from the hot set;
	// serve-fresh walks its pool of distinct inputs, and the stream hook
	// starts a new model generation each time the walk wraps.
	reqs := requestStream{distinct: s.reqs}
	if spec.stream != nil {
		reqs.order = spec.stream(cfg.Seed, 1<<18, len(s.reqs))
	}
	var reloadMs spans
	hook := st.streamHook(reqs.len(), &reloadMs, false)

	// The untraced run spends all of --seconds on fixed-rate windows; the
	// traced run leaves a quarter for the layer pass.
	fixedBudget := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		fixedBudget = fixedBudget * 3 / 4
	}
	winDur := time.Second
	if cfg.Tiny {
		winDur, fixedBudget = 200*time.Millisecond, 0
	}

	// Warm-up: connections, pools and caches reach steady state.
	offset := 0
	warm := g.run(reqs, offset, int(spec.rate*0.3)+1, spec.rate, hook)
	offset += len(warm.latUs)
	out.attempted += warm.sent
	out.failed += warm.failed

	pr := startProbe()
	hits0, lookups0 := st.cacheStats()
	var wins []window
	start := time.Now()
	for i := 0; len(wins) < 2 || time.Since(start) < fixedBudget; i++ {
		traced := cfg.Trace && i%2 == 1
		st.handler.on.Store(traced)
		n := int(spec.rate * winDur.Seconds())
		c0 := cpuTime()
		step := g.run(reqs, offset, n, spec.rate, hook)
		cpu := cpuTime() - c0
		st.handler.on.Store(false)
		w := summarise(step, st.handler.take(), traced)
		w.cpu = cpu
		if step.unsent > 0 {
			out.mismatch("fixed-rate window %d left %d of %d requests unsent at %.0f/s", i, step.unsent, n, spec.rate)
		}
		step = nil
		w.heapMB = pr.lap()
		offset += n
		wins = append(wins, w)
		out.attempted += w.sent
		out.failed += w.failed
	}
	hits1, lookups1 := st.cacheStats()
	var p50s, p90s, p99s, heaps, lag50, lag99, wait50, wait99, tracedP50 []float64
	fixedSent, fixedCPU := 0, 0.0
	for _, w := range wins {
		lag50, lag99 = append(lag50, w.lag50), append(lag99, w.lag99)
		wait50, wait99 = append(wait50, w.wait50), append(wait99, w.wait99)
		if w.traced {
			tracedP50 = append(tracedP50, w.p50)
			continue
		}
		p50s, p90s, p99s = append(p50s, w.p50), append(p90s, w.p90), append(p99s, w.p99)
		heaps = append(heaps, w.heapMB)
		fixedSent += w.sent
		fixedCPU += w.cpu.Seconds()
	}
	out.set("p50_us", median(p50s), "us")
	out.set("cpu_us_per_op", 1e6*fixedCPU/float64(fixedSent), "us")
	out.note("fixed rate %.0f/s: %d windows of %v (%d traced); per-window p50 %v p90 %v p99 %v (median %.1fus)",
		spec.rate, len(wins), winDur, countTraced(wins), fmtList(p50s), fmtList(p90s), fmtList(p99s), median(p99s))
	lagP50 := median(lag50)
	out.note("load generator, median over windows: lag p50 %.1fus p99 %.1fus (limit %.0fus on p50), connection wait p50 %.1fus p99 %.1fus",
		lagP50, median(lag99), lagLimitUs, median(wait50), median(wait99))
	if lagP50 > lagLimitUs {
		out.invalid = fmt.Sprintf("load generator median lag %.0fus exceeds %.0fus", lagP50, lagLimitUs)
	}
	hitRate := float64(hits1-hits0) / math.Max(1, float64(lookups1-lookups0))
	out.note("decision cache hit rate over the fixed-rate windows: %.4f (%d lookups)", hitRate, lookups1-lookups0)

	rt := pr.finish()
	out.set("peak_heap_mb", median(heaps), "MB")
	out.note("peak live heap per window %v MB (highest %.3f MB)", fmtList(heaps), rt.peakHeapMB)

	if cfg.Trace {
		var handler, send, lagT, waitT []float64
		sent := 0
		for _, w := range wins {
			sent += w.sent
			if w.traced {
				handler = append(handler, w.handler50)
				send = append(send, w.send50)
				lagT = append(lagT, w.lag50)
				waitT = append(waitT, w.wait50)
			}
		}
		out.set("loadgen.lag_us", lagP50, "us")
		out.set("loadgen.conn_wait_us", median(wait50), "us")
		out.set("serve.cache_hit_rate", hitRate, "fraction")
		binary := 0.0
		if spec.wire == serve.WireBinary {
			binary = 1
		}
		out.set("workload.binary_wire_share", binary, "fraction")
		if st.router != nil {
			out.set("fleet.retries", float64(st.router.Stats().Retries), "count")
		}
		if rel := reloadMs.take(); len(rel) > 0 {
			out.set("serve.reload_ms", median(rel), "ms")
			out.note("hot reloads: %d Service.Load calls, median %.3fms", len(rel), median(rel))
		}
		out.setRuntime(rt, sent)
		out.setOverhead(p50s, tracedP50)
		lp, err := layerPass(spec, s, reqs, cfg)
		if err != nil {
			return nil, err
		}
		out.attempted += lp.n
		out.failed += lp.failed
		lp.report(out, median(handler), median(send), median(lagT), median(waitT), median(tracedP50), hitRate)
	}
	out.complete(cfg.Trace)
	return out, nil
}

// lagLimitUs invalidates a run whose load generator sends its median
// request this late: the schedule, not the server, would set latency.
const lagLimitUs = 200.0

// streamHook returns what happens as a connection takes stream index i.
// serve-fresh starts a new model generation on every replica whenever the
// walk over its pool of n distinct inputs wraps, so no input repeats
// within a generation. serve-hot fires a Service.Load hot reload of every
// model at every index ≡ reloadEvery/2 (mod reloadEvery), recording its
// duration in ms: from a goroutine of its own under load, inline when
// inline is set.
func (st *stack) streamHook(n int, ms *spans, inline bool) func(i int) {
	if st.spec.stream == nil {
		return func(i int) {
			if i%n == 0 && i > 0 {
				st.newGeneration()
			}
		}
	}
	every := st.spec.reloadEvery
	reload := func() {
		for _, name := range sortedKeys(st.setup.artifacts) {
			t0 := time.Now()
			if _, err := st.services[0].Load(st.setup.artifacts[name]); err != nil {
				fmt.Printf("  reload failed: %v\n", err)
				continue
			}
			ms.add(float64(time.Since(t0)) / 1e6)
		}
	}
	return func(i int) {
		if i%every != every/2 {
			return
		}
		if inline {
			reload()
			return
		}
		go reload()
	}
}

// newGeneration republishes every replica's current models
// (Registry.Install, no artifact parse): each gets a new generation, so
// its decision cache starts cold.
func (st *stack) newGeneration() {
	for _, svc := range st.services {
		reg := svc.Registry()
		for _, name := range reg.Names() {
			if snap, ok := reg.Get(name); ok {
				_, _ = reg.Install(snap.Model) // Install of a loaded model cannot fail
			}
		}
	}
}

func countTraced(ws []window) int {
	n := 0
	for _, w := range ws {
		if w.traced {
			n++
		}
	}
	return n
}

// digest fingerprints a set-up's artifacts, bodies and offline labels.
func digest(s *servedSetup) string {
	h := sha256.New()
	for _, name := range sortedKeys(s.artifacts) {
		h.Write(s.artifacts[name])
	}
	for _, r := range s.reqs {
		h.Write(r.body)
		fmt.Fprintf(h, "%d;", r.want)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// servedQuality is the served models' Table-1 quality on their test
// inputs: geometric-mean speedup over the static oracle and the minimum
// satisfaction.
func servedQuality(s *servedSetup, sc exp.Scale) (speedup, sat float64) {
	logS := 0.0
	sat = math.Inf(1)
	for _, c := range s.cases {
		m := s.trained[c.Prog.Name()]
		testD := core.BuildDatasetCached(c.Prog, c.Test, m, engine.NewCache(0), sc.Parallel)
		idx := core.AllRows(testD)
		so := core.StaticOracleIndex(c.Prog, m.Train, core.AllRows(m.Train), h2)
		static := core.EvalStatic(c.Prog, testD, idx, so)
		two := core.EvalTwoLevel(m, testD, idx)
		logS += math.Log(meanSpeedup(static.PerInputExec, two.PerInputTotal))
		sat = math.Min(sat, two.Satisfaction)
	}
	return math.Exp(logS / float64(len(s.cases))), sat
}
