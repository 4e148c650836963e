package exp

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"inputtune/internal/serve"
)

// TestDriveLoad runs the load driver against a stub that answers body i
// with label i%3 at the current generation, except for one body answered
// with a 500 and one answered with a wrong label.
func TestDriveLoad(t *testing.T) {
	const (
		nBodies  = 20
		requests = 23 // not divisible by clients; k=20..22 cycle back to bodies 0..2
		clients  = 4
		failIdx  = 10
		wrongIdx = 15
	)
	var gen atomic.Uint64
	gen.Store(1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		i, err := strconv.Atoi(string(data))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		d := serve.Decision{Landmark: i % 3, Generation: gen.Load()}
		switch i {
		case failIdx:
			// A well-formed body: only the status marks the failure.
			w.WriteHeader(http.StatusInternalServerError)
		case wrongIdx:
			d.Landmark++
		}
		json.NewEncoder(w).Encode(d)
	}))
	defer srv.Close()

	bodies := make([][]byte, nBodies)
	for i := range bodies {
		bodies[i] = []byte(strconv.Itoa(i))
	}
	var completed atomic.Uint64
	fired := make([]int, 2)
	firedAt := make([]uint64, 2)
	event := func(e, after int) loadEvent {
		return loadEvent{after: after, fire: func() error {
			fired[e]++
			firedAt[e] = completed.Load()
			gen.Add(1)
			return nil
		}}
	}
	run, err := driveLoad(loadSpec{
		url: srv.URL, client: srv.Client(), bodies: bodies, contentType: serve.ContentTypeJSON,
		clients: clients, requests: requests,
		events:    []loadEvent{event(0, 5), event(1, 15)},
		completed: &completed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.recs) != requests || completed.Load() != requests {
		t.Fatalf("sent %d records, completed %d; want %d", len(run.recs), completed.Load(), requests)
	}
	for e, after := range []int{5, 15} {
		if fired[e] != 1 || firedAt[e] < uint64(after) {
			t.Fatalf("event %d fired %d times at %d completed, want once at >= %d", e, fired[e], firedAt[e], after)
		}
	}
	// Every request that completed before an event fired saw the older
	// generation; the failed request, which may be among them, carries
	// none.
	byGen := map[uint64]int{}
	mismatched := 0
	for k, r := range run.recs {
		if r.idx != k%nBodies {
			t.Fatalf("record %d carries input %d, want %d", k, r.idx, k%nBodies)
		}
		if (r.err != nil) != (r.idx == failIdx) {
			t.Fatalf("record %d (input %d): err %v", k, r.idx, r.err)
		}
		if r.err == nil {
			byGen[r.gen]++
			if r.landmark != r.idx%3 {
				mismatched++
			}
		}
	}
	if byGen[1] < 5-1 || byGen[1]+byGen[2] < 15-1 {
		t.Fatalf("generations %v: an event fired before its threshold", byGen)
	}
	sum := summarizeLoad(run.recs, run.wall)
	if sum.failed != 1 || mismatched != 1 || sum.answered != requests-1 {
		t.Fatalf("failed %d, mismatched %d, answered %d; want 1, 1, %d", sum.failed, mismatched, sum.answered, requests-1)
	}
	if sum.rps <= 0 || sum.p50 <= 0 || sum.p99 < sum.p50 {
		t.Fatalf("summary malformed: %+v", sum)
	}

	// A failing event is returned after every client has stopped.
	boom := errors.New("boom")
	_, err = driveLoad(loadSpec{
		url: srv.URL, client: srv.Client(), bodies: bodies, contentType: serve.ContentTypeJSON,
		clients: clients, requests: requests,
		events: []loadEvent{{after: 3, fire: func() error { return boom }}},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("event error %v, want %v", err, boom)
	}
}
