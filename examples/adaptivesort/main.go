// Adaptive sort on registry-style real-world data — the paper's sort1
// scenario (Central Contractor Registration FOIA extract, simulated per
// docs/ARCHITECTURE.md § Substitutions, item 2).
//
// The example trains on registry slices, then contrasts three deployment
// policies on held-out slices: the trained two-level model, the best
// single configuration (static oracle), and the per-input best landmark
// (dynamic oracle). It also prints the largest per-input wins, the
// heavy-tail phenomenon of the paper's Figure 6.
//
//	go run ./examples/adaptivesort
package main

import (
	"fmt"
	"sort"

	"inputtune"
	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/core"
)

func main() {
	prog := sortbench.New()

	mix := func(seed uint64, count int) []inputtune.Input {
		var out []inputtune.Input
		lists := sortbench.GenerateMix(sortbench.MixOptions{
			Count: count, Seed: seed, RealLike: true, MaxSize: 2048,
		})
		for _, l := range lists {
			out = append(out, l)
		}
		return out
	}
	train := mix(11, 200)
	test := mix(23, 200)

	fmt.Println("training on 200 registry slices...")
	model := inputtune.Train(prog, train, inputtune.Options{K1: 12, Seed: 3, Parallel: true})
	fmt.Printf("  production classifier: %s, features: %v\n\n",
		model.Report.Production, model.Report.SelectedFeatures)

	// Measure all landmarks on the test slices to build the comparison.
	testData := core.BuildDataset(prog, test, model, true)
	idx := core.AllRows(testData)
	so := core.StaticOracleIndex(prog, model.Train, core.AllRows(model.Train), 0.95)
	static := core.EvalStatic(prog, testData, idx, so)
	dyn := core.EvalDynamicOracle(prog, testData, idx)
	two := core.EvalTwoLevel(model, testData, idx)

	speedups := make([]float64, len(idx))
	sum2, sumD := 0.0, 0.0
	for i := range idx {
		speedups[i] = static.PerInputExec[i] / two.PerInputTotal[i]
		sum2 += speedups[i]
		sumD += static.PerInputExec[i] / dyn.PerInputExec[i]
	}
	fmt.Printf("mean per-slice speedup over the static oracle:\n")
	fmt.Printf("  two-level model  %5.2fx\n", sum2/float64(len(idx)))
	fmt.Printf("  dynamic oracle   %5.2fx (upper bound)\n\n", sumD/float64(len(idx)))

	sort.Sort(sort.Reverse(sort.Float64Slice(speedups)))
	fmt.Println("largest per-slice wins (the Figure 6 tail):")
	for i := 0; i < 5 && i < len(speedups); i++ {
		fmt.Printf("  #%d  %6.2fx\n", i+1, speedups[i])
	}
}
