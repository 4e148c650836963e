package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json: its name and unit. A
// per-layer metric also names the end-to-end metrics a change in its
// layer should move (BENCHMARK.json admits no key for this, so the list
// lives here and in the traced run's report).
type metricDef struct {
	name, unit string
	moves      []string
}

// endToEnd are the metrics of the untraced run, printed by every workload.
// A train workload's "operation" is one deployed input (Model.Run); a
// serve workload's is one classify request.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "train_s", unit: "s"},
	{name: "speedup_x", unit: "x"},
	{name: "satisfaction", unit: "fraction"},
	{name: "p50_us", unit: "us"},
	{name: "cpu_us_per_op", unit: "us"},
	{name: "peak_heap_mb", unit: "MB"},
}

// Shorthands for what a per-layer metric moves. A train workload's p50_us
// and cpu_us_per_op are its deploy cost (Model.Run per input); a serve
// workload's are per request.
var (
	toP50      = []string{"p50_us"}
	toP50CPU   = []string{"p50_us", "cpu_us_per_op"}
	toCPU      = []string{"cpu_us_per_op"}
	toTrain    = []string{"train_s"}
	toTrainCPU = []string{"train_s", "cpu_us_per_op"}
	toMemory   = []string{"cpu_us_per_op", "peak_heap_mb"}
)

// perLayer are the metrics of the traced run. Every workload prints all of
// them; a layer a workload does not reach reads 0 and is listed as "not on
// this workload's path" in the report. The bench.* metrics describe the
// benchmark itself and move nothing.
var perLayer = []metricDef{
	{"serve.decode_us", "us", toP50CPU},
	{"serve.decode_allocs", "count", toP50CPU},
	{"feature.extract_us", "us", toP50},
	{"serve.cache_lookup_us", "us", toP50},
	{"serve.cache_hit_rate", "fraction", toP50},
	{"dtree.classify_us", "us", toP50},
	{"serve.encode_us", "us", toP50},
	{"serve.service_self_us", "us", toP50CPU},
	{"serve.service_allocs", "count", toP50CPU},
	{"serve.handler_self_us", "us", toP50CPU},
	{"serve.reload_ms", "ms", toCPU},
	{"serve.unattributed_us", "us", toP50},
	{"fleet.route_self_us", "us", toP50},
	{"fleet.retries", "count", toP50},
	{"http.transport_us", "us", toP50CPU},
	{"loadgen.lag_us", "us", toP50},
	{"loadgen.conn_wait_us", "us", toP50},
	{"core.features_s", "s", toTrain},
	{"core.tune_s", "s", toTrain},
	{"core.measure_s", "s", toTrain},
	{"core.classifiers_s", "s", toTrain},
	{"core.unattributed_s", "s", toTrain},
	{"core.deploy_classify_us", "us", toP50CPU},
	{"core.deploy_run_us", "us", toP50CPU},
	{"autotuner.evals", "count", toTrain},
	{"autotuner.memo_hits", "count", toTrain},
	{"autotuner.dead_gene_collapses", "count", toTrain},
	{"engine.program_runs", "count", toTrain},
	{"engine.cache_hit_rate", "fraction", toTrain},
	{"engine.memo_hit_rate", "fraction", toTrain},
	{"dtree.zoo_trees", "count", toTrain},
	{"dtree.zoo_dedup_hits", "count", toTrain},
	{"pde.mg_cycle_us", "us", []string{"train_s", "p50_us"}},
	{"runtime.cpu_util", "fraction", toTrainCPU},
	{"runtime.gc_pause_us", "us", []string{"p50_us", "peak_heap_mb"}},
	{"runtime.allocs_per_op", "count", toMemory},
	{"workload.binary_wire_share", "fraction", toP50},
	{"workload.tune_measure_share", "fraction", toTrain},
	{"workload.classifiers_share", "fraction", toTrain},
	{"workload.pde_share", "fraction", toTrain},
	{"bench.trace_overhead_pct", "%", nil},
	{"bench.trace_overhead_iqr_pct", "%", nil},
	{"bench.trace_overhead_reps", "count", nil},
}

// complete keeps exactly the metrics of the run's level. A per-layer
// metric the workload did not measure is set to 0 and named in the
// report; a missing end-to-end metric is a bug in the workload.
func (o *outcome) complete(trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	kept := make(map[string]metric, len(defs))
	var absent []string
	for _, d := range defs {
		m, ok := o.metrics[d.name]
		if !ok {
			if !trace {
				panic("perfbench: workload did not measure " + d.name)
			}
			absent = append(absent, d.name)
			m = metric{Value: 0, Unit: d.unit}
		}
		if m.Unit != d.unit {
			panic("perfbench: " + d.name + " measured in " + m.Unit + ", declared in " + d.unit)
		}
		kept[d.name] = m
	}
	o.metrics = kept
	if len(absent) > 0 {
		o.note("not on this workload's path (printed as 0): %v", absent)
	}
}

// ---- order statistics ----

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// ---- runtime probe ----

// probe measures the Go runtime over one phase: CPU time, peak live heap
// (bytes marked live by a collection, sampled every 2 ms without
// stopping the world, so GC timing does not move it), GC pauses and
// allocations.
type probe struct {
	start   time.Time
	cpu0    time.Duration
	ms0     runtime.MemStats
	peak    atomic.Uint64 // bytes, this lap
	maxMB   float64       // over the finished laps
	stop    chan struct{}
	stopped sync.WaitGroup
}

type probeResult struct {
	wall, cpu   time.Duration
	peakHeapMB  float64
	gcPauses    int
	gcPauseMean float64 // µs per collection
	mallocs     uint64
}

// startProbe collects garbage first, so set-up's leftovers do not count
// toward the phase's live heap.
func startProbe() *probe {
	runtime.GC()
	p := &probe{stop: make(chan struct{})}
	runtime.ReadMemStats(&p.ms0)
	p.cpu0 = cpuTime()
	p.start = time.Now()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	p.stopped.Add(1)
	go func() {
		defer p.stopped.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > p.peak.Load() {
				p.peak.Store(v)
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// lap returns the peak live heap in MB since the previous lap (or the
// start) and starts a new lap.
func (p *probe) lap() float64 {
	mb := float64(p.peak.Swap(0)) / (1 << 20)
	p.maxMB = math.Max(p.maxMB, mb)
	return mb
}

func (p *probe) finish() probeResult {
	close(p.stop)
	p.stopped.Wait()
	wall := time.Since(p.start)
	cpu := cpuTime() - p.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := probeResult{
		wall:       wall,
		cpu:        cpu,
		peakHeapMB: math.Max(p.maxMB, float64(p.peak.Load())/(1<<20)),
		gcPauses:   int(ms.NumGC - p.ms0.NumGC),
		mallocs:    ms.Mallocs - p.ms0.Mallocs,
	}
	if r.gcPauses > 0 {
		r.gcPauseMean = float64(ms.PauseTotalNs-p.ms0.PauseTotalNs) / 1e3 / float64(r.gcPauses)
	}
	return r
}

// cpuUtil is process CPU time over wall time times the processor count.
func (r probeResult) cpuUtil() float64 {
	return r.cpu.Seconds() / (r.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// setRuntime records the runtime layer's metrics for ops operations.
func (o *outcome) setRuntime(r probeResult, ops int) {
	o.set("runtime.cpu_util", r.cpuUtil(), "fraction")
	o.set("runtime.gc_pause_us", r.gcPauseMean, "us")
	if ops > 0 {
		o.set("runtime.allocs_per_op", float64(r.mallocs)/float64(ops), "count")
	}
	o.note("runtime: %d GCs, mean pause %.1fus, %.0f allocs/op over %d ops, cpu %.2f of %d procs",
		r.gcPauses, r.gcPauseMean, float64(r.mallocs)/math.Max(1, float64(ops)), ops, r.cpuUtil(), runtime.GOMAXPROCS(0))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocsPer runs fn n times and returns heap allocations per call.
func allocsPer(n int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// overhead summarises paired traced-vs-untraced repetitions: the median
// relative slowdown in percent, its interquartile range, and whether the
// pairs' range spans zero (no measurable effect).
func (o *outcome) setOverhead(untraced, traced []float64) {
	n := len(untraced)
	if len(traced) < n {
		n = len(traced)
	}
	if n == 0 {
		return
	}
	diffs := make([]float64, n)
	for i := 0; i < n; i++ {
		diffs[i] = 100 * (traced[i] - untraced[i]) / untraced[i]
	}
	med := median(diffs)
	iqr := quantile(diffs, 0.75) - quantile(diffs, 0.25)
	o.set("bench.trace_overhead_pct", med, "%")
	o.set("bench.trace_overhead_iqr_pct", iqr, "%")
	o.set("bench.trace_overhead_reps", float64(n), "count")
	lo, hi := quantile(diffs, 0), quantile(diffs, 1)
	verdict := "measurable"
	if lo <= 0 && hi >= 0 {
		verdict = "no measurable effect"
	}
	o.note("trace overhead: median %+.2f%% over %d paired reps, IQR %.2f%%, range [%+.2f%%, %+.2f%%]: %s",
		med, n, iqr, lo, hi, verdict)
}
