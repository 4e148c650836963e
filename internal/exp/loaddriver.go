package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"inputtune/internal/core"
	"inputtune/internal/serve"
	"inputtune/internal/stats"
)

// loadSpec describes one closed-loop load run against /v1/classify. It is
// the one client loop behind serve-bench, cluster-bench and drift-bench,
// so all three count and time requests the same way.
type loadSpec struct {
	url    string // server base URL
	client *http.Client
	bodies [][]byte
	// contentType is the request Content-Type; binary requests also ask
	// for the ITD1 binary response, so a binary run measures the full
	// binary round trip.
	contentType string
	clients     int
	// requests is the total budget. Request k (0 <= k < requests) sends
	// bodies[k%len(bodies)]; the clients take contiguous blocks of k, the
	// first requests%clients of them one request more than the rest.
	requests int
	// events fire in order on the driver's goroutine, each once the run
	// has completed at least `after` requests (after <= requests).
	events []loadEvent
	// completed, when non-nil, is bumped per finished request, so a
	// caller can watch progress across several runs.
	completed *atomic.Uint64
}

// loadEvent is an action fired mid-run: a hot reload, a replica kill or
// a restart.
type loadEvent struct {
	after int
	fire  func() error
}

// loadRecord is one request's outcome. err is set on a failed request: a
// transport error, a non-200 status or an undecodable body. landmark and
// gen come from the decoded Decision; lat is set on every response.
type loadRecord struct {
	idx      int // index into the run's bodies
	err      error
	landmark int
	gen      uint64
	lat      time.Duration
}

// loadRun is one run's records, in request order, and its wall time.
type loadRun struct {
	recs []loadRecord
	wall time.Duration
}

// driveLoad runs s to completion. It always waits for every client before
// it returns; a failing event stops the clients early and is returned,
// leaving the unsent requests' records zero.
func driveLoad(s loadSpec) (loadRun, error) {
	completed := s.completed
	if completed == nil {
		completed = new(atomic.Uint64)
	}
	base := completed.Load()
	recs := make([]loadRecord, s.requests)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	per, extra := s.requests/s.clients, s.requests%s.clients
	for g, lo := 0, 0; g < s.clients; g++ {
		hi := lo + per
		if g < extra {
			hi++
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for k := lo; k < hi && !stop.Load(); k++ {
				recs[k] = s.send(k % len(s.bodies))
				completed.Add(1)
			}
		}(lo, hi)
		lo = hi
	}
	var err error
	for i, ev := range s.events {
		for completed.Load()-base < uint64(ev.after) {
			time.Sleep(200 * time.Microsecond)
		}
		if err = ev.fire(); err != nil {
			err = fmt.Errorf("event %d after %d requests: %w", i, ev.after, err)
			stop.Store(true)
			break
		}
	}
	wg.Wait()
	return loadRun{recs: recs, wall: time.Since(start)}, err
}

// send issues one request and decodes the Decision by the response's
// Content-Type.
func (s *loadSpec) send(idx int) loadRecord {
	rec := loadRecord{idx: idx}
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/classify", bytes.NewReader(s.bodies[idx]))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Content-Type", s.contentType)
	if s.contentType == serve.ContentTypeBinary {
		req.Header.Set("Accept", serve.ContentTypeBinary)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		rec.err = err
		return rec
	}
	var d serve.Decision
	if resp.Header.Get("Content-Type") == serve.ContentTypeBinary {
		var bd *serve.Decision
		if bd, err = serve.DecodeBinaryDecision(resp.Body); err == nil {
			d = *bd
		}
	} else {
		err = json.NewDecoder(resp.Body).Decode(&d)
	}
	resp.Body.Close()
	rec.lat = time.Since(t0)
	switch {
	case resp.StatusCode != http.StatusOK:
		rec.err = fmt.Errorf("status %d", resp.StatusCode)
	case err != nil:
		rec.err = err
	default:
		rec.landmark, rec.gen = d.Landmark, d.Generation
	}
	return rec
}

// loadSummary is a run's failure count plus latency (µs) and throughput
// over its answered requests only.
type loadSummary struct {
	failed, answered   int
	rps                float64 // 0 when no wall time is given
	p50, p90, p99, avg float64
}

func summarizeLoad(recs []loadRecord, wall time.Duration) loadSummary {
	var s loadSummary
	lats := make([]float64, 0, len(recs))
	for _, r := range recs {
		if r.err != nil {
			s.failed++
			continue
		}
		lats = append(lats, float64(r.lat.Nanoseconds())/1e3)
		s.avg += lats[len(lats)-1]
	}
	s.answered = len(lats)
	if s.answered == 0 {
		return s
	}
	sort.Float64s(lats)
	s.p50 = stats.QuantileSorted(lats, 0.50)
	s.p90 = stats.QuantileSorted(lats, 0.90)
	s.p99 = stats.QuantileSorted(lats, 0.99)
	s.avg /= float64(s.answered)
	if wall > 0 {
		s.rps = float64(s.answered) / wall.Seconds()
	}
	return s
}

// encodeBodies renders every input as one request body in the given wire
// format.
func encodeBodies(benchmark string, inputs []core.Input, wire serve.Wire) ([][]byte, error) {
	codec, err := serve.LookupCodec(benchmark)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(inputs))
	for i, in := range inputs {
		if wire == serve.WireBinary {
			var buf bytes.Buffer
			if err := codec.Encode(serve.WireBinary, &buf, in); err != nil {
				return nil, err
			}
			bodies[i] = buf.Bytes()
			continue
		}
		raw, err := codec.EncodeJSON(in)
		if err != nil {
			return nil, err
		}
		bodies[i], err = json.Marshal(struct {
			Benchmark string          `json:"benchmark"`
			Input     json.RawMessage `json:"input"`
		}{benchmark, raw})
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}
