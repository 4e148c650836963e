package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"inputtune/internal/serve"
)

// request is one prepared classify request and the label the offline
// classifier gives its input.
type request struct {
	body []byte
	want int
}

// requestStream is the order requests are sent in: stream index i sends
// distinct[order[i%len(order)]], or distinct[i%len(distinct)] when order
// is nil. Keeping indices, not copies, keeps the benchmark's own memory
// out of the heap it measures.
type requestStream struct {
	distinct []request
	order    []uint16
}

func (s requestStream) len() int {
	if s.order != nil {
		return len(s.order)
	}
	return len(s.distinct)
}

func (s requestStream) at(i int) request {
	if s.order != nil {
		return s.distinct[s.order[i%len(s.order)]]
	}
	return s.distinct[i%len(s.distinct)]
}

// loadgen is the open-loop load generator: requests fall due on a fixed
// schedule whether or not earlier ones have finished, and are sent over at
// most `conns` keep-alive connections, one goroutine each.
type loadgen struct {
	url         string
	contentType string
	binaryResp  bool
	clients     []*http.Client
}

// conns is the generator's goroutine and connection count: one per
// processor of the benchmark's reference machine (2 cores).
const conns = 2

func newLoadgen(url string, wire serve.Wire) *loadgen {
	g := &loadgen{url: url, contentType: wire.ContentType(), binaryResp: wire == serve.WireBinary}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// step is one open-loop phase at a fixed rate.
type step struct {
	latUs  []float64 // due → response read, by request (NaN if unsent): what a user on the schedule sees
	sendUs []float64 // send → response read: what the connection saw
	lagUs  []float64 // the generator's own lateness: send − max(due, connection free)
	waitUs []float64 // due → a connection was free
	sent   int
	failed int
	unsent int // requests never sent because the backlog passed abortLag
}

// abortLag ends a step early once a request would be sent this late: the
// system no longer sustains the offered rate, and the requests left unsent
// count as failures.
const abortLag = 250 * time.Millisecond

// run offers n requests at the given rate, request j at start + j/rate,
// and checks every response against its offline label. Request j is
// stream index offset+j; onPick, when non-nil, is called with the stream index as a connection
// takes the request.
func (g *loadgen) run(reqs requestStream, offset, n int, rate float64, onPick func(i int)) *step {
	st := &step{latUs: make([]float64, n)}
	for j := range st.latUs {
		st.latUs[j] = math.NaN()
	}
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var aborted atomic.Bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			var s step
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n || aborted.Load() {
					break
				}
				due := start.Add(time.Duration(i) * interval)
				pick := time.Now()
				if pick.Sub(due) > abortLag {
					aborted.Store(true)
					break
				}
				if onPick != nil {
					onPick(offset + i)
				}
				sleepUntil(due)
				free := due
				if pick.After(due) {
					free = pick
				}
				send := time.Now()
				r := reqs.at(offset + i)
				err := g.do(client, r, &buf)
				done := time.Now()
				s.sent++
				if err != nil {
					s.failed++
					fmt.Printf("  request %d failed: %v\n", i, err)
				}
				st.latUs[i] = micros(done.Sub(due)) // each index is written by one worker
				s.sendUs = append(s.sendUs, micros(done.Sub(send)))
				s.lagUs = append(s.lagUs, micros(send.Sub(free)))
				s.waitUs = append(s.waitUs, micros(max(0, pick.Sub(due))))
			}
			mu.Lock()
			st.sendUs = append(st.sendUs, s.sendUs...)
			st.lagUs = append(st.lagUs, s.lagUs...)
			st.waitUs = append(st.waitUs, s.waitUs...)
			st.sent += s.sent
			st.failed += s.failed
			mu.Unlock()
		}(g.clients[w])
	}
	wg.Wait()
	st.unsent = n - st.sent
	return st
}

// latencies returns the measured latencies of the requests sent.
func (st *step) latencies() []float64 {
	out := make([]float64, 0, st.sent)
	for _, l := range st.latUs {
		if !math.IsNaN(l) {
			out = append(out, l)
		}
	}
	return out
}

// do sends one request and checks its answer: a transport error, a
// non-200 status or a label other than the offline one is an error.
func (g *loadgen) do(client *http.Client, r request, buf *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", g.contentType)
	if g.binaryResp {
		req.Header.Set("Accept", serve.ContentTypeBinary)
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	var got int
	if g.binaryResp {
		d, err := serve.DecodeBinaryDecision(buf)
		if err != nil {
			return fmt.Errorf("decoding decision: %w", err)
		}
		got = d.Landmark
	} else {
		var d struct {
			Landmark int `json:"landmark"`
		}
		if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
			return fmt.Errorf("decoding decision: %w", err)
		}
		got = d.Landmark
	}
	if got != r.want {
		return fmt.Errorf("label %d, offline label %d", got, r.want)
	}
	return nil
}

// sleepUntil blocks until t. The Go timer wheel wakes sub-millisecond
// sleeps up to a millisecond late, which would swamp request latencies
// of tens of microseconds, so the wait is a nanosleep system call (the
// processor is handed to other goroutines meanwhile) ending shortly
// before t, then a yielding spin. The thread's timer slack is cut from
// the kernel's 50 µs default to 1 µs first, so the nanosleep ends within
// a few microseconds of its deadline.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 20*time.Microsecond; d > 0 {
		const prSetTimerslack = 29
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0) // on failure the sleep is coarser; lag shows it
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; the spin covers it
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
