// Command perfbench is the repository benchmark: one workload per run,
// inputs generated from a seed, outputs checked, every metric printed by
// name and unit. The last line of standard output is the JSON result.
//
//	bash perfbench/run.sh --workload train-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with tracing off;
// with --trace 1 it is the traced run that yields the per-layer metrics.
// See README.md in this directory for the workloads and metric meanings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what a workload receives.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	// Tiny shrinks every input set and phase to a size the self-test can
	// run in seconds; the metric set is unchanged.
	Tiny bool
}

// outcome is what a workload returns: its metrics, its operation counts,
// and free-form report lines printed above the result.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	// invalid names a reason the measurement itself cannot be trusted
	// (the load generator fell behind); the run then exits nonzero.
	invalid string
	notes   []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// mismatch counts one failed correctness check and says which.
func (o *outcome) mismatch(format string, args ...any) {
	o.failed++
	o.note("MISMATCH: "+format, args...)
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"train-pde":   func(c runConfig) (*outcome, error) { return runTrain(trainPDE, c) },
	"train-mix":   func(c runConfig) (*outcome, error) { return runTrain(trainMix, c) },
	"serve-fresh": func(c runConfig) (*outcome, error) { return runServe(serveFresh, c) },
	"serve-hot":   func(c runConfig) (*outcome, error) { return runServe(serveHot, c) },
}

func main() {
	name := flag.String("workload", "", "workload: train-pde, train-mix, serve-fresh or serve-hot")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(sortedKeys(workloads), ", "))
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	start := time.Now()
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res := finish(*name, cfg, out, time.Since(start))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// finish prints the human-readable report and assembles the result line:
// exactly the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) that BENCHMARK.json declares.
func finish(name string, cfg runConfig, out *outcome, wall time.Duration) result {
	level := "end-to-end"
	if cfg.Trace {
		level = "per-layer"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v (%s metrics, run took %.1fs)\n",
		name, cfg.Seed, cfg.Seconds, cfg.Trace, level, wall.Seconds())
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	moves := map[string][]string{}
	for _, d := range perLayer {
		moves[d.name] = d.moves
	}
	for _, k := range sortedKeys(out.metrics) {
		m := out.metrics[k]
		line := fmt.Sprintf("  %-32s %14.6g %s", k, m.Value, m.Unit)
		if mv := moves[k]; cfg.Trace && len(mv) > 0 {
			line += fmt.Sprintf("  (moves %s)", strings.Join(mv, ", "))
		}
		fmt.Println(line)
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("  error_rate %.6g (%d failed of %d attempted)\n", errRate, out.failed, out.attempted)
	if out.invalid != "" {
		fmt.Printf("  INVALID RUN: %s\n", out.invalid)
	}
	attempted := out.attempted
	if attempted < 1 {
		attempted = 1
	}
	return result{
		Correct:   out.failed == 0 && out.invalid == "" && out.attempted > 0,
		Attempted: attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
