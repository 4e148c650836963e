// Command calibrate validates the virtual-time cost model
// (docs/ARCHITECTURE.md § Substitutions, item 1) against wall-clock reality on this machine: it runs each
// sorting algorithm on each input family under both a cost.Meter and a
// real timer, and reports the two rankings side by side. The claim being
// checked is not that virtual units convert to nanoseconds, but that the
// ORDERING of algorithms on a given input — which is all the learning
// pipeline consumes — agrees.
//
//	go run ./cmd/calibrate
//	go run ./cmd/calibrate -n 8192 -reps 7
package main

import (
	"flag"
	"fmt"
	"sort"
	"time"

	"inputtune/internal/benchmarks/sortbench"
	"inputtune/internal/choice"
	"inputtune/internal/cost"
	"inputtune/internal/engine"
	"inputtune/internal/rng"
)

// score holds one algorithm's cost under both clocks.
type score struct {
	alg     int
	virtual float64
	wall    time.Duration
}

func main() {
	n := flag.Int("n", 4096, "list length")
	reps := flag.Int("reps", 5, "wall-clock repetitions (median taken)")
	flag.Parse()

	prog := sortbench.New()
	r := rng.New(1)
	agree, total := 0, 0
	fmt.Printf("%-14s %-24s %-24s %s\n", "input", "virtual ranking", "wall-clock ranking", "top pick agrees?")
	for _, g := range sortbench.Generators() {
		l := g.Gen(*n, r)
		// Virtual runs are deterministic and independent, so they go on the
		// shared engine pool; wall-clock runs stay serial so parallelism
		// cannot skew the very timings being calibrated.
		configs := make([]*choice.Config, len(sortbench.AltNames))
		for alg := range configs {
			configs[alg] = prog.Space().DefaultConfig()
			configs[alg].Selectors[0].Else = alg
		}
		scores := make([]score, len(configs))
		engine.Default().ForEach(len(scores), func(alg int) {
			scores[alg] = score{alg: alg, virtual: virtualTime(configs[alg], l)}
		})
		for alg := range scores {
			scores[alg].wall = wallTime(configs[alg], l, *reps)
		}
		byVirtual := append([]score(nil), scores...)
		sort.Slice(byVirtual, func(a, b int) bool { return byVirtual[a].virtual < byVirtual[b].virtual })
		byWall := append([]score(nil), scores...)
		sort.Slice(byWall, func(a, b int) bool { return byWall[a].wall < byWall[b].wall })
		match := byVirtual[0].alg == byWall[0].alg
		total++
		if match {
			agree++
		}
		fmt.Printf("%-14s %-24s %-24s %v\n", g.Name,
			rankString(byVirtual, 3), rankString(byWall, 3), match)
	}
	fmt.Printf("\ntop-algorithm agreement: %d/%d input families\n", agree, total)
	fmt.Println("(disagreements are expected on families where two algorithms run within noise of each other)")
}

// rankString renders the top algorithms like "Inser>Merge>Radix".
func rankString(s []score, top int) string {
	out := ""
	for i := 0; i < top && i < len(s); i++ {
		if i > 0 {
			out += ">"
		}
		out += shortName(s[i].alg)
	}
	return out
}

func shortName(alg int) string {
	name := sortbench.AltNames[alg]
	if len(name) > 5 {
		return name[:5]
	}
	return name
}

func virtualTime(cfg *choice.Config, l *sortbench.List) float64 {
	m := cost.NewMeter()
	work := append([]float64(nil), l.Data...)
	sortbench.SortWith(work, cfg, 0, cfg.Int(0), m)
	return m.Elapsed()
}

func wallTime(cfg *choice.Config, l *sortbench.List, reps int) time.Duration {
	var times []time.Duration
	for i := 0; i < reps; i++ {
		work := append([]float64(nil), l.Data...)
		times = append(times, cost.WallClock(func() {
			sortbench.SortWith(work, cfg, 0, cfg.Int(0), cost.NewMeter())
		}))
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	return times[len(times)/2]
}
