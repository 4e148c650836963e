package exp

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"inputtune/internal/core"
	"inputtune/internal/obs"
	"inputtune/internal/serve"
)

// ServeBenchOptions sizes the serving load benchmark.
type ServeBenchOptions struct {
	// Cases are the Table-1 case names to serve. The default — sort2,
	// clustering2, binpacking — covers the two largest-input workloads
	// (where wire-format cost shows) plus a variable-accuracy one.
	Cases []string
	// Wires are the wire formats to run, one load arm per format against
	// its own server instance (default: JSON then binary — the A/B).
	Wires []serve.Wire
	// Clients is the number of concurrent load-generator clients
	// (default 8).
	Clients int
	// Requests is the total request budget per case and wire, split over
	// the clients (default 2000).
	Requests int
	// Reloads is how many hot reloads are fired while traffic runs,
	// spaced evenly through the request budget; all must succeed with
	// zero failed requests. Zero means none (the no-reload baseline); the
	// CLI default is 2.
	Reloads int
	// DisableDecisionCache runs the server with the decision cache off —
	// the A/B arm; labels are identical either way.
	DisableDecisionCache bool
	// TraceArm adds one extra binary-wire arm with every request traced
	// (obs sample 1-in-1), so the trajectory records tracing's overhead
	// delta against the untraced binary arm directly.
	TraceArm bool
	// Scale sets the training budget for the served models.
	Scale Scale
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (o *ServeBenchOptions) setDefaults() {
	if len(o.Cases) == 0 {
		o.Cases = []string{"sort2", "clustering2", "binpacking"}
	}
	if len(o.Wires) == 0 {
		o.Wires = []serve.Wire{serve.WireJSON, serve.WireBinary}
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Requests <= 0 {
		o.Requests = 2000
	}
	if o.Reloads < 0 {
		o.Reloads = 0
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// ServeCaseResult is one benchmark's serving performance under load over
// one wire format.
type ServeCaseResult struct {
	Case      string `json:"case"`
	Benchmark string `json:"benchmark"`
	// Wire is the format this arm ran ("json" or "binary") — the binary
	// arm sends binary request frames AND negotiates ITD1 binary
	// responses, so it measures the full binary round trip.
	Wire string `json:"wire"`
	// Traced marks the trace-overhead arm: same binary round trip, every
	// request traced end to end. TraceOverheadPct is its throughput loss
	// versus the untraced binary arm (negative = noise in its favor).
	Traced           bool    `json:"traced,omitempty"`
	TraceOverheadPct float64 `json:"trace_overhead_pct,omitempty"`
	// Requests sent, the whole budget; FailedRequests MUST be zero (a
	// transport error, a non-200 status, an undecodable body, or a label
	// differing from the offline classification all count as failures).
	Requests       int `json:"requests"`
	FailedRequests int `json:"failed_requests"`
	// Reloads fired mid-run; GenerationEnd is the registry generation
	// after the last one.
	Reloads       int    `json:"reloads"`
	GenerationEnd uint64 `json:"generation_end"`

	// Throughput and latency count answered requests only.
	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Micros     float64 `json:"latency_p50_us"`
	P90Micros     float64 `json:"latency_p90_us"`
	P99Micros     float64 `json:"latency_p99_us"`
	MeanMicros    float64 `json:"latency_mean_us"`

	// AllocsPerRequest is the process-wide heap-allocation count per
	// request over the measured run (server plus loopback client; the
	// client-side bookkeeping is identical across wire arms, so the
	// JSON-vs-binary delta is the wire stack's own).
	AllocsPerRequest float64 `json:"allocs_per_request"`
	// RequestBytes is the median request-body size over the test inputs —
	// the wire-efficiency companion to AllocsPerRequest.
	RequestBytes int `json:"request_bytes"`

	CacheHits    uint64  `json:"decision_cache_hits"`
	CacheMisses  uint64  `json:"decision_cache_misses"`
	CacheHitRate float64 `json:"decision_cache_hit_rate"`
}

// ServeBenchReport is the "serve" section of the BENCH trajectory file.
type ServeBenchReport struct {
	Clients       int  `json:"clients"`
	Requests      int  `json:"requests_per_case"`
	DecisionCache bool `json:"decision_cache"`
	// SingleCore + Note: the shared GOMAXPROCS=1 caveat (see caveat.go) —
	// throughput here then measures one core serving and generating load.
	SingleCore bool              `json:"single_core,omitempty"`
	Note       string            `json:"note,omitempty"`
	Results    []ServeCaseResult `json:"results"`
}

// RunServeBench trains a model per case, serves it over a real loopback
// HTTP server through the full serve stack (codec decode, registry,
// decision cache, metrics), and drives it with concurrent clients while
// firing hot reloads — one arm per wire format, so the trajectory file
// carries the JSON-vs-binary A/B directly.
func RunServeBench(opts ServeBenchOptions) (ServeBenchReport, error) {
	opts.setDefaults()
	rep := ServeBenchReport{
		Clients:       opts.Clients,
		Requests:      opts.Requests,
		DecisionCache: !opts.DisableDecisionCache,
	}
	rep.SingleCore, rep.Note = singleCoreCaveat(
		"GOMAXPROCS=1: server and load generator share one core, so throughput measures the combined stack, not serving alone")
	for _, name := range opts.Cases {
		results, err := runServeCase(name, opts)
		if err != nil {
			return rep, fmt.Errorf("serve-bench %s: %w", name, err)
		}
		rep.Results = append(rep.Results, results...)
	}
	return rep, nil
}

// servedCase is the per-case state shared by every wire arm: the trained
// model artifact and the precomputed offline ground truth.
type servedCase struct {
	c        Case
	artifact []byte
	want     []int
}

// newServedCase trains one Table-1 case's model, serialises it to the
// artifact every replica loads, and precomputes the offline ground-truth
// labels every serving arm (serve-bench wires, cluster-bench fleets) is
// checked against.
func newServedCase(tag, name string, sc Scale, logf func(string, ...any)) (*servedCase, error) {
	c := BuildCase(name, sc)
	logf("[%s %s] training model (%d inputs, K1=%d)", tag, name, len(c.Train), sc.K1)
	model := core.TrainModel(c.Prog, c.Train, core.Options{
		K1: sc.K1, Seed: sc.Seed, TunerPopulation: sc.TunerPop,
		TunerGenerations: sc.TunerGens, H2: h2, Parallel: sc.Parallel,
		DisableCache: sc.DisableCache,
	})
	var artifact bytes.Buffer
	if err := core.SaveModel(model, &artifact); err != nil {
		return nil, err
	}
	set := c.Prog.Features()
	want := make([]int, len(c.Test))
	for i, in := range c.Test {
		want[i] = model.Production.ClassifyInput(set, in, nil)
	}
	return &servedCase{c: c, artifact: artifact.Bytes(), want: want}, nil
}

func runServeCase(name string, opts ServeBenchOptions) ([]ServeCaseResult, error) {
	logf := opts.Logf
	scase, err := newServedCase("serve-bench", name, opts.Scale, logf)
	if err != nil {
		return nil, err
	}

	var results []ServeCaseResult
	for _, wire := range opts.Wires {
		res, err := runServeArm(name, scase, wire, false, opts)
		if err != nil {
			return nil, fmt.Errorf("%s wire: %w", wire, err)
		}
		results = append(results, res)
	}
	if opts.TraceArm {
		res, err := runServeArm(name, scase, serve.WireBinary, true, opts)
		if err != nil {
			return nil, fmt.Errorf("traced binary wire: %w", err)
		}
		// The overhead headline compares like with like: the untraced
		// binary arm from this same run.
		for _, base := range results {
			if base.Wire == serve.WireBinary.String() && !base.Traced && base.ThroughputRPS > 0 {
				res.TraceOverheadPct = 100 * (base.ThroughputRPS - res.ThroughputRPS) / base.ThroughputRPS
			}
		}
		results = append(results, res)
	}
	return results, nil
}

// runServeArm serves one case over one wire format with a fresh service,
// so cache statistics, metrics and pool warmup never leak across arms.
// Every arm runs with a tracer installed — untraced arms at sample 0, so
// allocs_per_request measures the disabled-sampling fast path the
// zero-allocation guarantee covers, not a tracer-free build; the traced
// arm samples every request.
func runServeArm(name string, sc *servedCase, wire serve.Wire, traced bool, opts ServeBenchOptions) (ServeCaseResult, error) {
	bodies, err := encodeBodies(sc.c.Prog.Name(), sc.c.Test, wire)
	if err != nil {
		return ServeCaseResult{}, err
	}

	reg := serve.NewRegistry()
	if err := reg.Register(sc.c.Prog); err != nil {
		return ServeCaseResult{}, err
	}
	sampleEvery := 0
	if traced {
		sampleEvery = 1
	}
	svc := serve.NewService(reg, serve.Options{
		Cache:  serve.CacheOptions{Disable: opts.DisableDecisionCache},
		Tracer: obs.New(obs.Options{SampleEvery: sampleEvery}),
	})
	if _, err := svc.Load(sc.artifact); err != nil {
		return ServeCaseResult{}, err
	}
	srv := httptest.NewServer(serve.NewHandler(svc))
	defer srv.Close()
	client := srv.Client()
	client.Timeout = 60 * time.Second

	armLabel := wire.String()
	if traced {
		armLabel += "+traced"
	}
	opts.Logf("[serve-bench %s/%s] %d clients, %d requests, %d hot reloads mid-run",
		name, armLabel, opts.Clients, opts.Requests, opts.Reloads)

	// Hot reloads spaced evenly through the request budget (reload r fires
	// once (r+1)/(Reloads+1) of the traffic has completed, so the swap
	// lands on warm-cache steady-state traffic, not the cold start). Each
	// must succeed, and — the acceptance criterion — cost zero failed
	// requests.
	reloads := make([]loadEvent, opts.Reloads)
	for r := range reloads {
		reloads[r] = loadEvent{after: (r + 1) * opts.Requests / (opts.Reloads + 1), fire: func() error {
			resp, err := client.Post(srv.URL+"/v1/reload", "application/json", bytes.NewReader(sc.artifact))
			if err != nil {
				return fmt.Errorf("hot reload: %w", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("hot reload: status %d", resp.StatusCode)
			}
			return nil
		}}
	}
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run, err := driveLoad(loadSpec{
		url: srv.URL, client: client, bodies: bodies, contentType: wire.ContentType(),
		clients: opts.Clients, requests: opts.Requests, events: reloads,
	})
	if err != nil {
		return ServeCaseResult{}, err
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	sum := summarizeLoad(run.recs, run.wall)
	failed := sum.failed
	for _, r := range run.recs {
		if r.err == nil && r.landmark != sc.want[r.idx] {
			failed++
		}
	}
	cs := svc.CacheStats()
	snap, _ := reg.Get(sc.c.Prog.Name())
	res := ServeCaseResult{
		Case:             name,
		Benchmark:        sc.c.Prog.Name(),
		Wire:             wire.String(),
		Traced:           traced,
		Requests:         len(run.recs),
		FailedRequests:   failed,
		Reloads:          len(reloads),
		GenerationEnd:    snap.Generation,
		WallSeconds:      run.wall.Seconds(),
		ThroughputRPS:    sum.rps,
		P50Micros:        sum.p50,
		P90Micros:        sum.p90,
		P99Micros:        sum.p99,
		MeanMicros:       sum.avg,
		AllocsPerRequest: float64(m1.Mallocs-m0.Mallocs) / float64(len(run.recs)),
		RequestBytes:     medianLen(bodies),
		CacheHits:        cs.Hits,
		CacheMisses:      cs.Misses,
		CacheHitRate:     cs.HitRate(),
	}
	opts.Logf("[serve-bench %s/%s] %.0f req/s, p50 %.0fµs p99 %.0fµs, %.0f allocs/req, %d failed, cache hit %.1f%%",
		name, armLabel, res.ThroughputRPS, res.P50Micros, res.P99Micros,
		res.AllocsPerRequest, res.FailedRequests, 100*res.CacheHitRate)
	return res, nil
}

// medianLen returns the median byte length across request bodies.
func medianLen(bodies [][]byte) int {
	if len(bodies) == 0 {
		return 0
	}
	lens := make([]int, len(bodies))
	for i, b := range bodies {
		lens[i] = len(b)
	}
	sort.Ints(lens)
	return lens[len(lens)/2]
}

// RenderServeBench formats the report as a human-readable table.
func RenderServeBench(r ServeBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve-bench: %d clients, %d requests/case/wire, decision cache %v\n",
		r.Clients, r.Requests, r.DecisionCache)
	fmt.Fprintf(&b, "%-12s %-9s %8s %10s %9s %9s %9s %10s %7s %8s %9s\n",
		"Case", "wire", "req", "thru(r/s)", "p50(µs)", "p90(µs)", "p99(µs)", "allocs/req", "failed", "reloads", "cacheHit%")
	fmt.Fprintln(&b, strings.Repeat("-", 110))
	for _, res := range r.Results {
		wireLabel := res.Wire
		if res.Traced {
			wireLabel += "+tr"
		}
		fmt.Fprintf(&b, "%-12s %-9s %8d %10.0f %9.0f %9.0f %9.0f %10.0f %7d %8d %8.1f%%\n",
			res.Case, wireLabel, res.Requests, res.ThroughputRPS, res.P50Micros, res.P90Micros,
			res.P99Micros, res.AllocsPerRequest, res.FailedRequests, res.Reloads, 100*res.CacheHitRate)
		if res.Traced && res.TraceOverheadPct != 0 {
			fmt.Fprintf(&b, "%-12s %-9s trace overhead vs untraced binary: %+.1f%%\n", "", "", res.TraceOverheadPct)
		}
	}
	return b.String()
}

// MergeServeIntoBench replaces the "serve" section of the BENCH file at
// path (see mergeIntoBench).
func MergeServeIntoBench(path string, sb ServeBenchReport) error {
	return mergeIntoBench(path, func(r *BenchReport) { r.Serve = &sb })
}
