package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"inputtune/internal/serve"
)

// TestRunServeBenchSmoke drives the full serving stack at a tiny scale:
// train, serve over loopback HTTP, hammer with concurrent clients, hot
// reload mid-run. Zero failed requests is the acceptance invariant — a
// failure here means a served label diverged from the offline
// classification or a reload dropped traffic.
func TestRunServeBenchSmoke(t *testing.T) {
	sc := tinyScale()
	rep, err := RunServeBench(ServeBenchOptions{
		Cases:    []string{"sort2"},
		Clients:  4,
		Requests: 80,
		Reloads:  2,
		Scale:    sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The default wire set is the JSON-vs-binary A/B: one arm per format.
	if len(rep.Results) != 2 {
		t.Fatalf("expected 2 results (json + binary arms), got %d", len(rep.Results))
	}
	wires := map[string]bool{}
	for _, res := range rep.Results {
		wires[res.Wire] = true
		if res.FailedRequests != 0 {
			t.Fatalf("%s arm: %d failed requests under hot reload", res.Wire, res.FailedRequests)
		}
		if res.Requests != 80 || res.Reloads != 2 {
			t.Fatalf("result shape off: %+v", res)
		}
		if res.GenerationEnd < 3 { // initial load + 2 reloads
			t.Fatalf("%s arm: generation %d after 2 reloads", res.Wire, res.GenerationEnd)
		}
		if res.ThroughputRPS <= 0 || res.P50Micros <= 0 || res.P99Micros < res.P50Micros {
			t.Fatalf("latency/throughput malformed: %+v", res)
		}
		if res.AllocsPerRequest <= 0 || res.RequestBytes <= 0 {
			t.Fatalf("wire-cost metrics missing: %+v", res)
		}
	}
	if !wires["json"] || !wires["binary"] {
		t.Fatalf("arms ran %v, want both json and binary", wires)
	}
	if out := RenderServeBench(rep); out == "" {
		t.Fatal("empty render")
	}
}

// TestServeBenchCacheOnOffLabelsIdentical runs the A/B arms and checks
// both serve every request correctly (failed counts stay zero), proving
// the decision cache changes no answers over the real wire path.
func TestServeBenchCacheOnOffLabelsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full serve-bench arms")
	}
	sc := tinyScale()
	for _, disable := range []bool{false, true} {
		rep, err := RunServeBench(ServeBenchOptions{
			Cases: []string{"sort2"}, Wires: []serve.Wire{serve.WireJSON},
			Clients: 2, Requests: 64, Reloads: 1,
			DisableDecisionCache: disable, Scale: sc,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Results[0].FailedRequests; got != 0 {
			t.Fatalf("cacheDisabled=%v: %d failed requests", disable, got)
		}
		hits := rep.Results[0].CacheHits
		if disable && hits != 0 {
			t.Fatalf("disabled cache recorded %d hits", hits)
		}
	}
}

// TestRunServeBenchNoReloadBaseline checks that -reloads 0 really means
// zero: no reload fires and the generation stays at the initial load.
func TestRunServeBenchNoReloadBaseline(t *testing.T) {
	rep, err := RunServeBench(ServeBenchOptions{
		Cases: []string{"sort2"}, Wires: []serve.Wire{serve.WireBinary},
		Clients: 2, Requests: 16, Reloads: 0,
		Scale: tinyScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Reloads != 0 || res.GenerationEnd != 1 {
		t.Fatalf("no-reload baseline fired reloads: %+v", res)
	}
	if res.FailedRequests != 0 {
		t.Fatalf("%d failed requests", res.FailedRequests)
	}
}

// TestMergeServeIntoBench merges each serving section (serve, fleet,
// drift) into a fresh file and into an existing one: the merged section
// must land and everything else — training results and the other two
// sections — must survive.
func TestMergeServeIntoBench(t *testing.T) {
	serveSec := &ServeBenchReport{Clients: 2, Requests: 10,
		Results: []ServeCaseResult{{Case: "sort2", Benchmark: "sort", Requests: 10}}}
	fleetSec := &FleetBenchReport{Case: "sort2", Clients: 3, Requests: 20,
		Arms: []FleetArmResult{{Replicas: 2, Requests: 20, Kills: 1}}}
	driftSec := &DriftBenchReport{Benchmark: "sort", Clients: 4, Window: 128,
		Phases: []DriftPhaseResult{{Phase: "pre_shift", Requests: 30}}}
	full := BenchReport{Scale: "quick", Seed: 42,
		Results: []BenchResult{{Benchmark: "sort1", WallSeconds: 1}},
		Serve:   serveSec, Fleet: fleetSec, Drift: driftSec}
	cases := []struct {
		name  string
		merge func(path string) error
		// only keeps just the section this case merges; without drops it.
		only, without func(r BenchReport) BenchReport
	}{
		{"serve", func(p string) error { return MergeServeIntoBench(p, *serveSec) },
			func(r BenchReport) BenchReport { return BenchReport{Serve: r.Serve} },
			func(r BenchReport) BenchReport { r.Serve = nil; return r }},
		{"fleet", func(p string) error { return MergeFleetIntoBench(p, *fleetSec) },
			func(r BenchReport) BenchReport { return BenchReport{Fleet: r.Fleet} },
			func(r BenchReport) BenchReport { r.Fleet = nil; return r }},
		{"drift", func(p string) error { return MergeDriftIntoBench(p, *driftSec) },
			func(r BenchReport) BenchReport { return BenchReport{Drift: r.Drift} },
			func(r BenchReport) BenchReport { r.Drift = nil; return r }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "BENCH_test.json")
			// mergeAndCheck merges this case's section into path and
			// compares the file with want, byte for byte as JSON.
			mergeAndCheck := func(what string, want BenchReport) {
				t.Helper()
				if err := tc.merge(path); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if wantJSON, _ := want.BenchJSON(); string(got) != string(wantJSON) {
					t.Fatalf("%s: file is\n%s\nwant\n%s", what, got, wantJSON)
				}
			}

			mergeAndCheck("merge into a fresh file", tc.only(full))
			// An existing file keeps its training results and the other
			// two sections.
			data, _ := json.Marshal(tc.without(full))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			mergeAndCheck("merge into an existing file", full)

			// A non-bench file must be rejected, not overwritten.
			badPath := filepath.Join(dir, "notbench.json")
			if err := os.WriteFile(badPath, []byte("[1,2,3]"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := tc.merge(badPath); err == nil {
				t.Fatal("merged into a non-bench file")
			}
			if data, _ := os.ReadFile(badPath); string(data) != "[1,2,3]" {
				t.Fatalf("non-bench file overwritten: %s", data)
			}
		})
	}
}
