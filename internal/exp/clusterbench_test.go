package exp

import "testing"

// TestRunClusterBenchSmoke drives a 1- and a 2-replica fleet, killing and
// restarting a replica mid-run on the 2-replica arm: the router must
// absorb the outage with zero failed requests and every label must match
// the offline classification. The budget is not divisible by the client
// count, so each arm must still send exactly that many requests.
func TestRunClusterBenchSmoke(t *testing.T) {
	rep, err := RunClusterBench(ClusterBenchOptions{
		Replicas: []int{1, 2},
		Clients:  4,
		Requests: 201,
		Kill:     true,
		Scale:    tinyScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Arms) != 2 || rep.Failed() {
		t.Fatalf("arms %+v", rep.Arms)
	}
	for _, arm := range rep.Arms {
		if arm.Requests != 201 || arm.FailedRequests != 0 || arm.LabelMismatches != 0 {
			t.Fatalf("%d-replica arm: %d requests, %d failed, %d mismatched", arm.Replicas,
				arm.Requests, arm.FailedRequests, arm.LabelMismatches)
		}
		if wantKills := arm.Replicas - 1; arm.Kills != wantKills {
			t.Fatalf("%d-replica arm: %d kills, want %d", arm.Replicas, arm.Kills, wantKills)
		}
		if arm.ThroughputRPS <= 0 || arm.P99Micros < arm.P50Micros {
			t.Fatalf("%d-replica arm: throughput/latency malformed: %+v", arm.Replicas, arm)
		}
	}
	if out := RenderClusterBench(rep); out == "" {
		t.Fatal("empty render")
	}
}
