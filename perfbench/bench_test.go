package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the workloads and
// metric lists the command implements.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, sortedKeys(workloads); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, command implements %v", got, want)
	}
	check := func(level string, declared []declaredMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, code %d", level, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], code %s [%s]",
					level, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	for _, d := range perLayer {
		if len(d.moves) == 0 && !strings.HasPrefix(d.name, "bench.") {
			t.Errorf("per-layer metric %s names no end-to-end metric it moves", d.name)
		}
		for _, m := range d.moves {
			if !slices.ContainsFunc(f.EndToEnd, func(e declaredMetric) bool { return e.Name == m }) {
				t.Errorf("per-layer metric %s moves %s, which BENCHMARK.json does not declare end to end", d.name, m)
			}
		}
	}
}

// TestEveryWorkloadPrintsEveryMetric runs each workload at a tiny size,
// untraced and traced, and checks it passes its own correctness checks
// and measures every declared metric in its declared unit.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{Seed: 7, Seconds: 0.2, Trace: trace, Tiny: true}
			out, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if out.failed != 0 || out.attempted == 0 || out.invalid != "" {
				t.Errorf("%s trace=%v: %d of %d failed, invalid %q; notes %v",
					name, trace, out.failed, out.attempted, out.invalid, out.notes)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(out.metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
			}
			if !trace && out.metrics["p50_us"].Value <= 0 {
				t.Errorf("%s: p50_us %v not positive", name, out.metrics["p50_us"].Value)
			}
		}
	}
}

// TestWrongLabelIsCaught serves a tiny hot workload whose first request
// expects a label the offline classifier did not give: the load generator
// must count exactly that request as failed.
func TestWrongLabelIsCaught(t *testing.T) {
	s, err := setupServe(serveHot, tinyScale, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStack(serveHot, s, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	g := newLoadgen(st.url, serveHot.wire)
	defer g.close()
	reqs := append([]request(nil), s.reqs...)
	reqs[0].want++
	res := g.run(requestStream{distinct: reqs}, 0, len(reqs), 500, nil)
	if res.sent != len(reqs) || res.failed != 1 {
		t.Fatalf("sent %d of %d, failed %d; want exactly the corrupted request failed", res.sent, len(reqs), res.failed)
	}
}
