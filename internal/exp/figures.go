package exp

import (
	"fmt"
	"strings"

	"inputtune/internal/core"
	"inputtune/internal/model"
	"inputtune/internal/rng"
	"inputtune/internal/stats"
)

// Fig8Point is one box of Figure 8: the speedup distribution over random
// landmark subsets of one size.
type Fig8Point struct {
	K                        int
	Min, Q1, Median, Q3, Max float64
}

// Fig8Sweep measures, for each subset size, the mean per-input speedup
// over the full static oracle obtained by dispatching every test input to
// its best landmark within a random subset — the paper's Figure 8 protocol
// ("random subsets of the 100 landmarks used in other results"), with
// quartile error bars over trials.
func Fig8Sweep(prog core.Program, d *core.Dataset, staticPerInput []float64, sizes []int, trials int, seed uint64) []Fig8Point {
	k1 := d.NumLandmarks()
	idx := core.AllRows(d)
	h1 := prog.AccuracyThreshold()
	hasAcc := prog.HasAccuracy()
	r := rng.New(seed)
	var out []Fig8Point
	for _, k := range sizes {
		if k > k1 {
			k = k1
		}
		var speedups []float64
		for t := 0; t < trials; t++ {
			subset := r.SampleWithoutReplacement(k1, k)
			sum := 0.0
			for _, i := range idx {
				best := -1
				for _, lm := range subset {
					if hasAcc && d.A[i][lm] < h1 {
						continue
					}
					if best == -1 || d.T[i][lm] < d.T[i][best] {
						best = lm
					}
				}
				if best == -1 {
					// Nothing feasible in the subset: most accurate member.
					best = subset[0]
					for _, lm := range subset[1:] {
						if d.A[i][lm] > d.A[i][best] {
							best = lm
						}
					}
				}
				m := d.T[i][best]
				if m <= 0 {
					m = 1e-12
				}
				sum += staticPerInput[i] / m
			}
			speedups = append(speedups, sum/float64(len(idx)))
		}
		sum := stats.Summarize(speedups)
		out = append(out, Fig8Point{K: k, Min: sum.Min, Q1: sum.Q1, Median: sum.Median, Q3: sum.Q3, Max: sum.Max})
		if k == k1 {
			break
		}
	}
	return out
}

// DefaultFig8Sizes doubles from 1 up to k1.
func DefaultFig8Sizes(k1 int) []int {
	var sizes []int
	for k := 1; k < k1; k *= 2 {
		sizes = append(sizes, k)
	}
	return append(sizes, k1)
}

// RenderFig8 formats the sweep like the paper's per-benchmark panels.
func RenderFig8(name string, pts []Fig8Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "figure 8 (%s): speedup over static oracle vs #landmarks (min/q1/median/q3/max)\n", name)
	for _, p := range pts {
		fmt.Fprintf(&b, "  k=%3d  %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx\n",
			p.K, p.Min, p.Q1, p.Median, p.Q3, p.Max)
	}
	return b.String()
}

// Fig8CSV renders the sweep as CSV.
func Fig8CSV(name string, pts []Fig8Point) string {
	var b strings.Builder
	b.WriteString("benchmark,k,min,q1,median,q3,max\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%s,%d,%.4f,%.4f,%.4f,%.4f,%.4f\n", name, p.K, p.Min, p.Q1, p.Median, p.Q3, p.Max)
	}
	return b.String()
}

// RenderFig7 prints the theoretical model curves of Figure 7.
func RenderFig7() string {
	var b strings.Builder
	b.WriteString("figure 7a: predicted lost speedup vs region size (uniform s_i)\n")
	b.WriteString("  p:      ")
	ps, _ := model.Fig7aCurve(2, 9)
	for _, p := range ps {
		fmt.Fprintf(&b, "%6.2f", p)
	}
	b.WriteByte('\n')
	for _, k := range []int{2, 3, 4, 5, 6, 7, 8, 9} {
		_, losses := model.Fig7aCurve(k, 9)
		fmt.Fprintf(&b, "  k=%d:    ", k)
		for _, l := range losses {
			fmt.Fprintf(&b, "%6.3f", l)
		}
		fmt.Fprintf(&b, "   (worst-case p* = %.3f)\n", model.WorstCaseRegionSize(k))
	}
	b.WriteString("\nfigure 7b: predicted fraction of full speedup vs #landmarks (worst-case region)\n")
	ks, fr := model.Fig7bCurve(100)
	for i := 0; i < len(ks); i += 10 {
		fmt.Fprintf(&b, "  k=%3d: %.4f\n", ks[i], fr[i])
	}
	fmt.Fprintf(&b, "  k=%3d: %.4f\n", ks[len(ks)-1], fr[len(fr)-1])
	return b.String()
}

// Fig7CSV renders both model curves as CSV.
func Fig7CSV() string {
	var b strings.Builder
	b.WriteString("curve,k,x,y\n")
	for _, k := range []int{2, 3, 4, 5, 6, 7, 8, 9} {
		ps, losses := model.Fig7aCurve(k, 99)
		for i := range ps {
			fmt.Fprintf(&b, "fig7a,%d,%.4f,%.6f\n", k, ps[i], losses[i])
		}
	}
	ks, fr := model.Fig7bCurve(100)
	for i := range ks {
		fmt.Fprintf(&b, "fig7b,%d,%d,%.6f\n", ks[i], ks[i], fr[i])
	}
	return b.String()
}

// AblationResult compares K-means-medoid landmark selection against random
// input selection (paper Section 3.1: ~41% degradation at 5 landmarks).
type AblationResult struct {
	Name           string
	K1             int
	KmeansSpeedup  float64 // dynamic-oracle speedup with K-means landmarks
	RandomSpeedup  float64 // same with randomly chosen tuning inputs
	DegradationPct float64 // (kmeans - random) / kmeans * 100
}

// AblationLandmarks trains two models differing only in landmark
// selection and compares their dynamic-oracle speedups on the test set.
func AblationLandmarks(c Case, sc Scale, logf func(string, ...any)) AblationResult {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	run := func(random bool) float64 {
		m := core.TrainModel(c.Prog, c.Train, core.Options{
			K1:               sc.K1,
			Seed:             sc.Seed,
			TunerPopulation:  sc.TunerPop,
			TunerGenerations: sc.TunerGens,
			H2:               h2,
			Parallel:         sc.Parallel,
			DisableCache:     sc.DisableCache,
			RandomLandmarks:  random,
			Logf:             logf,
		})
		testD := core.BuildDatasetCached(c.Prog, c.Test, m, sc.measurementCache(), sc.Parallel)
		idx := core.AllRows(testD)
		so := core.StaticOracleIndex(c.Prog, m.Train, core.AllRows(m.Train), h2)
		static := core.EvalStatic(c.Prog, testD, idx, so)
		dyn := core.EvalDynamicOracle(c.Prog, testD, idx)
		return static.MeanExec / dyn.MeanExec
	}
	km := run(false)
	rd := run(true)
	return AblationResult{
		Name:           c.Name,
		K1:             sc.K1,
		KmeansSpeedup:  km,
		RandomSpeedup:  rd,
		DegradationPct: 100 * (km - rd) / km,
	}
}

// RenderAblation formats ablation results.
func RenderAblation(results []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %4s %16s %16s %14s\n", "Benchmark", "K1", "kmeans-dynoracle", "random-dynoracle", "degradation")
	fmt.Fprintln(&b, strings.Repeat("-", 68))
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s %4d %15.2fx %15.2fx %13.1f%%\n",
			r.Name, r.K1, r.KmeansSpeedup, r.RandomSpeedup, r.DegradationPct)
	}
	return b.String()
}

// TuneSamplesResult compares landmark tuning against a single centroid
// input (the literal reading of the paper) with tuning against a spread of
// cluster members (our PetaBricks-confidence refinement,
// docs/ARCHITECTURE.md § Substitutions, item 5).
type TuneSamplesResult struct {
	Name    string
	Samples int
	// TwoLevelSpeedup and Satisfaction of the resulting deployment.
	TwoLevelSpeedup float64
	Satisfaction    float64
}

// AblationTuneSamples trains models with varying per-landmark sample
// counts and reports the deployed two-level speedup and satisfaction.
func AblationTuneSamples(c Case, sc Scale, samples []int, logf func(string, ...any)) []TuneSamplesResult {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if len(samples) == 0 {
		samples = []int{1, 3, 6}
	}
	var out []TuneSamplesResult
	for _, n := range samples {
		m := core.TrainModel(c.Prog, c.Train, core.Options{
			K1:               sc.K1,
			Seed:             sc.Seed,
			TunerPopulation:  sc.TunerPop,
			TunerGenerations: sc.TunerGens,
			TuneSamples:      n,
			H2:               h2,
			Parallel:         sc.Parallel,
			DisableCache:     sc.DisableCache,
			Logf:             logf,
		})
		testD := core.BuildDatasetCached(c.Prog, c.Test, m, sc.measurementCache(), sc.Parallel)
		idx := core.AllRows(testD)
		so := core.StaticOracleIndex(c.Prog, m.Train, core.AllRows(m.Train), h2)
		static := core.EvalStatic(c.Prog, testD, idx, so)
		two := core.EvalTwoLevel(m, testD, idx)
		sum := 0.0
		for i := range idx {
			sum += static.PerInputExec[i] / two.PerInputTotal[i]
		}
		out = append(out, TuneSamplesResult{
			Name:            c.Name,
			Samples:         n,
			TwoLevelSpeedup: sum / float64(len(idx)),
			Satisfaction:    two.Satisfaction,
		})
	}
	return out
}

// RenderTuneSamples formats the tuning-samples ablation.
func RenderTuneSamples(results []TuneSamplesResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %18s %14s\n", "Benchmark", "samples", "two-level speedup", "satisfaction")
	fmt.Fprintln(&b, strings.Repeat("-", 56))
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s %8d %17.2fx %13.1f%%\n",
			r.Name, r.Samples, r.TwoLevelSpeedup, 100*r.Satisfaction)
	}
	return b.String()
}
