package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"time"

	"inputtune/internal/autotuner"
	"inputtune/internal/benchmarks/helmholtz3d"
	"inputtune/internal/benchmarks/poisson2d"
	"inputtune/internal/core"
	"inputtune/internal/cost"
	"inputtune/internal/engine"
	"inputtune/internal/exp"
	"inputtune/internal/pde"
)

// trainSpec is one training workload: the Table-1 cases it trains and
// deploys, and the scale it trains them at.
type trainSpec struct {
	cases []string
	scale exp.Scale
	tiny  exp.Scale
	pde   bool
	// subSeeds is how many input sets (sub-seeds of --seed) a run cycles
	// through. Training time and quality are medians over them, so one
	// unlucky draw (a degenerate model, a heavy mix of grid sizes) does
	// not move the run's figures.
	subSeeds int
}

// h2 is the satisfaction threshold every Table-1 case trains against.
const h2 = 0.95

var trainPDE = trainSpec{
	cases:    []string{"poisson2d", "helmholtz3d"},
	scale:    exp.Scale{TrainInputs: 48, TestInputs: 48, K1: 6, TunerPop: 8, TunerGens: 6, Parallel: true},
	tiny:     exp.Scale{TrainInputs: 12, TestInputs: 12, K1: 2, TunerPop: 4, TunerGens: 2, Parallel: true},
	pde:      true,
	subSeeds: 5,
}

var trainMix = trainSpec{
	cases:    []string{"sort1", "sort2", "clustering1", "clustering2", "binpacking", "svd"},
	scale:    exp.Scale{TrainInputs: 90, TestInputs: 90, K1: 8, TunerPop: 10, TunerGens: 8, Parallel: true},
	tiny:     exp.Scale{TrainInputs: 16, TestInputs: 16, K1: 2, TunerPop: 4, TunerGens: 2, Parallel: true},
	subSeeds: 6,
}

// trainRep is one repetition of a training workload: fresh inputs, fresh
// programs (so no solver memo or lazily built problem state carries over),
// every case trained, saved, deployed and evaluated.
type trainRep struct {
	setup, train time.Duration
	deployUs     []float64 // Model.Run per test input
	deployWall   time.Duration
	deployCPU    time.Duration
	heapMB       float64   // peak live heap over the rep
	artifacts    []string  // SaveModel digest per case
	speedup      float64   // geometric mean of the speedups over every test input
	satisfaction float64   // minimum over cases
	caseSpeedup  []float64 // Table 1's mean per-input speedup, per case

	// Filled for every rep; read from traced reps.
	phases                       map[string]float64
	evals, memoHits, collapses   int
	programRuns, cacheLookups    uint64
	memoHits2, memoLookups       uint64
	zooTrees, zooDedup           int
	classifyUs, runUs            []float64
	caseTrainSeconds             map[string]float64
	largest2D, largest3D         core.Input
	largest2DSize, largest3DSize int
}

// buildCases generates the workload's inputs from the seed.
func buildCases(spec trainSpec, sc exp.Scale) []exp.Case {
	cs := make([]exp.Case, len(spec.cases))
	for i, n := range spec.cases {
		cs[i] = exp.BuildCase(n, sc)
	}
	return cs
}

// trainOptions mirrors the Table-1 runner: the case's tuner profile gives
// the per-landmark evaluation budget and meta-trial count.
func trainOptions(name string, sc exp.Scale) core.Options {
	p := exp.Profile(name)
	budget := 0
	if p.BudgetFrac > 0 {
		budget = int(p.BudgetFrac*float64(autotuner.FlatCost(sc.TunerPop, sc.TunerGens)) + 0.5)
	}
	return core.Options{
		K1: sc.K1, Seed: sc.Seed, TunerPopulation: sc.TunerPop, TunerGenerations: sc.TunerGens,
		TunerBudget: budget, TunerMetaTrials: p.MetaTrials, H2: h2, Parallel: sc.Parallel,
	}
}

func runTrainRep(spec trainSpec, sc exp.Scale, traced bool) (*trainRep, error) {
	r := &trainRep{phases: map[string]float64{}, caseTrainSeconds: map[string]float64{}, satisfaction: math.Inf(1)}
	t0 := time.Now()
	cases := buildCases(spec, sc)
	r.setup = time.Since(t0)
	var logSpeedups []float64 // log of each test input's two-level speedup
	for _, c := range cases {
		ts := time.Now()
		model := core.TrainModel(c.Prog, c.Train, trainOptions(c.Name, sc))
		d := time.Since(ts)
		r.train += d
		r.caseTrainSeconds[c.Name] = d.Seconds()

		rep := model.Report
		for _, ph := range rep.Phases {
			r.phases[ph.Name] += ph.Seconds
		}
		r.evals += rep.TunerEvaluations
		r.memoHits += rep.TunerCacheHits
		r.collapses += rep.DeadGeneCollapses
		r.programRuns += rep.Engine.Misses
		r.cacheLookups += rep.Engine.Hits + rep.Engine.Misses
		r.zooTrees += rep.ZooTrees
		r.zooDedup += rep.ZooDedupHits
		if mr, ok := c.Prog.(interface{ SolverMemoStats() engine.MemoStats }); ok {
			ms := mr.SolverMemoStats()
			r.memoHits2 += ms.Hits
			r.memoLookups += ms.Hits + ms.Misses
		}

		var art bytes.Buffer
		if err := core.SaveModel(model, &art); err != nil {
			return nil, fmt.Errorf("%s: saving model: %w", c.Name, err)
		}
		r.artifacts = append(r.artifacts, fmt.Sprintf("%x", sha256.Sum256(art.Bytes())))

		// Deploy: what the tuned program costs its user, one input at a
		// time. Traced reps split each run into its two public calls.
		// Training's garbage is collected first (untimed): a deployed
		// model does not inherit a training run's GC debt.
		runtime.GC()
		td, cd := time.Now(), cpuTime()
		for _, in := range c.Test {
			ti := time.Now()
			if traced {
				lm := model.Classify(in, cost.NewMeter())
				tc := time.Now()
				core.Measure(c.Prog, model.Landmarks[lm], in)
				tr := time.Now()
				r.classifyUs = append(r.classifyUs, micros(tc.Sub(ti)))
				r.runUs = append(r.runUs, micros(tr.Sub(tc)))
			} else {
				model.Run(in, cost.NewMeter())
			}
			r.deployUs = append(r.deployUs, micros(time.Since(ti)))
		}
		r.deployWall += time.Since(td)
		r.deployCPU += cpuTime() - cd

		// Quality, exactly as Table 1 computes it (untimed).
		testD := core.BuildDatasetCached(c.Prog, c.Test, model, engine.NewCache(0), sc.Parallel)
		idx := core.AllRows(testD)
		so := core.StaticOracleIndex(c.Prog, model.Train, core.AllRows(model.Train), h2)
		static := core.EvalStatic(c.Prog, testD, idx, so)
		two := core.EvalTwoLevel(model, testD, idx)
		for j := range idx {
			logSpeedups = append(logSpeedups, math.Log(static.PerInputExec[j]/math.Max(two.PerInputTotal[j], 1e-12)))
		}
		r.caseSpeedup = append(r.caseSpeedup, meanSpeedup(static.PerInputExec, two.PerInputTotal))
		r.satisfaction = math.Min(r.satisfaction, two.Satisfaction)

		if traced {
			r.noteLargest(c)
		}
	}
	r.speedup = math.Exp(sum(logSpeedups) / float64(len(logSpeedups)))
	return r, nil
}

// meanSpeedup is Table 1's mean per-input baseline/method time ratio.
func meanSpeedup(baseline, method []float64) float64 {
	s := 0.0
	for i := range baseline {
		m := method[i]
		if m <= 0 {
			m = 1e-12
		}
		s += baseline[i] / m
	}
	return s / float64(len(baseline))
}

// noteLargest remembers the case's largest PDE test problem.
func (r *trainRep) noteLargest(c exp.Case) {
	for _, in := range c.Test {
		switch p := in.(type) {
		case *poisson2d.Problem:
			if p.N > r.largest2DSize {
				r.largest2D, r.largest2DSize = p, p.N
			}
		case *helmholtz3d.Problem:
			if p.N > r.largest3DSize {
				r.largest3D, r.largest3DSize = p, p.N
			}
		}
	}
}

// subSeed derives the k-th input-set seed of a run.
func subSeed(seed uint64, k int) uint64 { return seed<<8 | uint64(k) }

func runTrain(spec trainSpec, cfg runConfig) (*outcome, error) {
	sc := spec.scale
	k := spec.subSeeds
	if cfg.Tiny {
		sc, k = spec.tiny, 2
	}
	scAt := func(i int) exp.Scale {
		s := sc
		s.Seed = subSeed(cfg.Seed, i%k)
		return s
	}
	out := newOutcome()

	// Set-up is input generation; repeat it so its median is steady.
	var setups []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		buildCases(spec, scAt(i))
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The untraced run trains sub-seed 0 twice first, so every run checks
	// that retraining an input set gives identical models, then cycles the
	// other sub-seeds until --seconds is spent. It finishes the pass over
	// every sub-seed (k+1 reps) even past --seconds, so that a somewhat
	// slower machine still measures the same input sets, but never past
	// twice --seconds. One pass fits in 20 s on the reference machine. The
	// traced run pairs an untraced and a traced rep on the same sub-seed.
	subOf := func(i int) int { return max(0, i-1) % k }
	pass := k + 1
	if cfg.Trace {
		subOf = func(i int) int { return (i / 2) % k }
		pass = 2
	}
	// One tiny rep first, untimed, so lazy package state and heap growth
	// are not charged to the first measured rep.
	if _, err := runTrainRep(spec, spec.tiny, false); err != nil {
		return nil, err
	}
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	pr := startProbe()
	start := time.Now()
	var reps []*trainRep
	var tracedFlags []bool
	var subs []int
	more := func() bool {
		if len(reps) < 2 {
			return true
		}
		if cfg.Tiny {
			return false
		}
		t := time.Since(start)
		return t < budget || (len(reps) < pass && t < 2*budget)
	}
	for i := 0; more(); i++ {
		traced := cfg.Trace && i%2 == 1
		r, err := runTrainRep(spec, scAt(subOf(i)), traced)
		if err != nil {
			return nil, err
		}
		r.heapMB = pr.lap()
		reps = append(reps, r)
		tracedFlags = append(tracedFlags, traced)
		subs = append(subs, subOf(i))
		setups = append(setups, r.setup.Seconds())
	}
	rt := pr.finish()

	// Correctness: every repetition of a sub-seed must train byte-identical
	// models with identical quality.
	firstOf := map[int]*trainRep{}
	for i, r := range reps {
		out.attempted += len(r.artifacts) + 2
		f, seen := firstOf[subs[i]]
		if !seen {
			firstOf[subs[i]] = r
			continue
		}
		for j := range r.artifacts {
			if r.artifacts[j] != f.artifacts[j] {
				out.mismatch("rep %d: %s SaveModel bytes differ from the first rep of sub-seed %d", i, spec.cases[j], subs[i])
			}
		}
		if r.speedup != f.speedup {
			out.mismatch("rep %d: speedup_x %.17g != %.17g", i, r.speedup, f.speedup)
		}
		if r.satisfaction != f.satisfaction {
			out.mismatch("rep %d: satisfaction %.17g != %.17g", i, r.satisfaction, f.satisfaction)
		}
	}
	var speedups, sats []float64
	for _, f := range firstOf {
		speedups = append(speedups, f.speedup)
		sats = append(sats, f.satisfaction)
	}

	// train_s is the median over input sets of each set's median rep, so
	// every set weighs the same however many reps it got.
	var trainS, deployAll, heaps []float64
	bySub := map[int][]float64{}
	deployWall, deployCPU := 0.0, 0.0
	for i, r := range reps {
		if tracedFlags[i] {
			continue
		}
		trainS = append(trainS, r.train.Seconds())
		heaps = append(heaps, r.heapMB)
		bySub[subs[i]] = append(bySub[subs[i]], r.train.Seconds())
		deployWall += r.deployWall.Seconds()
		deployCPU += r.deployCPU.Seconds()
		deployAll = append(deployAll, r.deployUs...)
	}
	var perSub []float64
	for _, ts := range bySub {
		perSub = append(perSub, median(ts))
	}
	out.note("%d reps (%d traced) of %v over %d sub-seeds; train_s per rep %v",
		len(reps), countTrue(tracedFlags), spec.cases, len(firstOf), fmtList(trainS))
	for kk := 0; kk < k; kk++ {
		if f, ok := firstOf[kk]; ok {
			out.note("sub-seed %d: speedup %.4f (Table 1 per case %v) satisfaction %.4f SaveModel %v",
				kk, f.speedup, fmtList(f.caseSpeedup), f.satisfaction, shortDigests(f.artifacts))
		}
	}
	out.set("setup_s", median(setups), "s")
	out.set("train_s", median(perSub), "s")
	out.set("speedup_x", median(speedups), "x")
	out.set("satisfaction", median(sats), "fraction")
	out.set("p50_us", quantile(deployAll, 0.5), "us")
	out.set("cpu_us_per_op", 1e6*deployCPU/float64(len(deployAll)), "us")
	out.set("peak_heap_mb", median(heaps), "MB")
	out.note("peak live heap per rep %v MB (highest %.3f MB)", fmtList(heaps), rt.peakHeapMB)
	out.note("deploy: %d Model.Run samples over untraced reps: p90 %.1fus p99 %.1fus, %.1f inputs/s",
		len(deployAll), quantile(deployAll, 0.9), quantile(deployAll, 0.99), float64(len(deployAll))/deployWall)

	if cfg.Trace {
		traceTrain(out, spec, reps, tracedFlags, rt)
	}
	out.complete(cfg.Trace)
	return out, nil
}

// traceTrain fills the per-layer metrics from the traced repetitions.
func traceTrain(out *outcome, spec trainSpec, reps []*trainRep, tracedFlags []bool, rt probeResult) {
	var features, tune, measure, classifiers, unattr, trainS, classify, run []float64
	var untracedCost, tracedCost []float64
	var last *trainRep
	for i, r := range reps {
		cost := r.train.Seconds() + r.deployWall.Seconds()
		if !tracedFlags[i] {
			untracedCost = append(untracedCost, cost)
			continue
		}
		tracedCost = append(tracedCost, cost)
		last = r
		features = append(features, r.phases["features"])
		tune = append(tune, r.phases["tune"])
		measure = append(measure, r.phases["measure"])
		classifiers = append(classifiers, r.phases["classifiers"])
		phased := r.phases["features"] + r.phases["tune"] + r.phases["measure"] + r.phases["classifiers"]
		unattr = append(unattr, r.train.Seconds()-phased)
		trainS = append(trainS, r.train.Seconds())
		classify = append(classify, r.classifyUs...)
		run = append(run, r.runUs...)
	}
	out.set("core.features_s", median(features), "s")
	out.set("core.tune_s", median(tune), "s")
	out.set("core.measure_s", median(measure), "s")
	out.set("core.classifiers_s", median(classifiers), "s")
	out.set("core.unattributed_s", median(unattr), "s")
	out.set("core.deploy_classify_us", median(classify), "us")
	out.set("core.deploy_run_us", median(run), "us")
	out.note("reconcile train_s %.3fs = features %.3f + tune %.3f + measure %.3f + classifiers %.3f + unattributed %.3f",
		median(trainS), median(features), median(tune), median(measure), median(classifiers), median(unattr))

	out.set("autotuner.evals", float64(last.evals), "count")
	out.set("autotuner.memo_hits", float64(last.memoHits), "count")
	out.set("autotuner.dead_gene_collapses", float64(last.collapses), "count")
	out.set("engine.program_runs", float64(last.programRuns), "count")
	out.set("engine.cache_hit_rate", 1-float64(last.programRuns)/float64(last.cacheLookups), "fraction")
	if last.memoLookups > 0 {
		out.set("engine.memo_hit_rate", float64(last.memoHits2)/float64(last.memoLookups), "fraction")
	}
	out.set("dtree.zoo_trees", float64(last.zooTrees), "count")
	out.set("dtree.zoo_dedup_hits", float64(last.zooDedup), "count")

	// Property shares this workload was chosen for.
	tm := (median(tune) + median(measure)) / median(trainS)
	out.set("workload.tune_measure_share", tm, "fraction")
	out.set("workload.classifiers_share", median(classifiers)/median(trainS), "fraction")
	pdeS := 0.0
	for name, s := range last.caseTrainSeconds {
		if name == "poisson2d" || name == "helmholtz3d" {
			pdeS += s
		}
	}
	out.set("workload.pde_share", pdeS/last.train.Seconds(), "fraction")
	out.note("shares of train_s: tune+measure %.2f, classifiers %.2f, PDE cases %.2f",
		tm, median(classifiers)/median(trainS), pdeS/last.train.Seconds())

	if spec.pde {
		c2 := mgCycle2D(last.largest2D.(*poisson2d.Problem))
		c3 := mgCycle3D(last.largest3D.(*helmholtz3d.Problem))
		out.set("pde.mg_cycle_us", c2+c3, "us")
		out.note("multigrid V(2,2) cycle at the largest test grids: 2D n=%d %.1fus + 3D n=%d %.1fus",
			last.largest2DSize, c2, last.largest3DSize, c3)
	}
	ops := 0
	for _, r := range reps {
		ops += len(r.artifacts)
	}
	out.setRuntime(rt, ops)
	out.setOverhead(untracedCost, tracedCost)
}

// mgCycle2D times V(2,2) Gauss-Seidel multigrid cycles on p's grid.
func mgCycle2D(p *poisson2d.Problem) float64 {
	h := pde.NewHierarchy2D(p.N)
	u := pde.NewGrid2D(p.N)
	var w pde.Work
	opt := pde.MGOptions2D{Pre: 2, Post: 2, Gamma: 1, Omega: 1}
	return timeCalls(func() { h.Cycle(u, p.F, opt, &w) })
}

// mgCycle3D times V(2,2) multigrid cycles on p's operator and grid.
func mgCycle3D(p *helmholtz3d.Problem) float64 {
	h := pde.NewHierarchy3D(p.Op)
	u := pde.NewGrid3D(p.N)
	var w pde.Work
	opt := pde.MGOptions3D{Pre: 2, Post: 2, Gamma: 1, Omega: 1}
	return timeCalls(func() { h.Cycle(u, p.F, opt, &w) })
}

// timeCalls returns the median wall time of 21 calls of fn, in µs.
func timeCalls(fn func()) float64 {
	fn() // first call sizes the work buffers
	ds := make([]float64, 21)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = micros(time.Since(t0))
	}
	return median(ds)
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func fmtList(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", x)
	}
	return "[" + b.String() + "]"
}

func shortDigests(ds []string) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d[:12]
	}
	return out
}
