package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"inputtune/internal/core"
	"inputtune/internal/cost"
	"inputtune/internal/engine"
	"inputtune/internal/feature"
	"inputtune/internal/serve"
)

// layerResult holds the per-request spans of the layer pass.
type layerResult struct {
	n, failed   int
	decode      []float64
	extract     []float64
	lookup      []float64
	classify    []float64 // only requests that walked the tree
	encode      []float64
	serviceSelf []float64
	// service self time by order: stage replay before the real call
	// (the call runs warm) or after it (the replay runs warm)
	selfStagesFirst, selfServiceFirst []float64
	routeSelf                         []float64
	inner                             []float64 // handler work below the HTTP layer
	decodeAllocs                      float64
	serviceAllocs                     float64
	mirrorLookups                     int
	mirrorMisses                      int
	extractedCount                    int
}

// layerPass replays the workload's requests, in order and on one
// goroutine, through the public functions the serving path is built from,
// with a span around each call. The service and router are real (fresh
// instances loaded with the same artifacts); the stages inside the
// service — decode, feature extraction, cache lookup, tree walk — are
// timed by calling the same public functions on the same request, the way
// the service calls them (pooled rows, the same key layout), with a mirror
// decision cache that sees the same keys in the same order. A layer's self
// time is its span minus its child spans.
//
// Whichever of the real call and the stage replay runs second finds the
// request's data in the processor caches. The order alternates from
// request to request so neither side always gets the warm run; the report
// prints the service self time of each order apart as the bias.
func layerPass(spec serveSpec, s *servedSetup, reqs requestStream, cfg runConfig) (*layerResult, error) {
	st, err := newStack(spec, s, false)
	if err != nil {
		return nil, err
	}
	defer st.close()
	n := 3000
	if cfg.Tiny {
		n = 60
	}
	var reloads spans
	hook := st.streamHook(reqs.len(), &reloads, true)
	lr := &layerResult{n: n}
	mirrors := make([]*serve.DecisionCache, len(st.services))
	for i := range mirrors {
		mirrors[i] = serve.NewDecisionCache(0)
	}
	replicaIndex := map[string]int{}
	for i, r := range st.replicas {
		replicaIndex[r.Name()] = i
	}
	var out []byte
	for i := 0; i < n; i++ {
		r := reqs.at(i)
		hook(i)
		stagesFirst := i%2 == 0
		var d *serve.Decision
		var cerr error
		var children, service, inner float64
		if spec.fleet {
			owner, oerr := st.router.Owner(r.body)
			if oerr != nil {
				return nil, oerr
			}
			ri := replicaIndex[owner]
			stages := func() error {
				t1 := time.Now()
				c, in, derr := serve.DecodeBinaryRequest(bytes.NewReader(r.body))
				dec := micros(time.Since(t1))
				if derr != nil {
					return derr
				}
				lr.decode = append(lr.decode, dec)
				children = dec + lr.replay(st.services[ri], mirrors[ri], c.Name, in)
				c.Release(in)
				return nil
			}
			if stagesFirst {
				if err := stages(); err != nil {
					return nil, err
				}
			}
			t0 := time.Now()
			d, cerr = st.router.Route(r.body)
			route := micros(time.Since(t0))
			service = st.replicas[ri].last
			lr.routeSelf = append(lr.routeSelf, route-service)
			if !stagesFirst {
				if err := stages(); err != nil {
					return nil, err
				}
			}
			inner = route
		} else {
			t0 := time.Now()
			var env struct {
				Benchmark string          `json:"benchmark"`
				Input     json.RawMessage `json:"input"`
			}
			if err := json.Unmarshal(r.body, &env); err != nil {
				return nil, err
			}
			c, err := serve.LookupCodec(env.Benchmark)
			if err != nil {
				return nil, err
			}
			in, err := c.DecodeJSON(env.Input)
			if err != nil {
				return nil, err
			}
			dec := micros(time.Since(t0))
			lr.decode = append(lr.decode, dec)
			if stagesFirst {
				children = lr.replay(st.services[0], mirrors[0], env.Benchmark, in)
			}
			t1 := time.Now()
			d, cerr = st.services[0].Classify(env.Benchmark, in)
			service = micros(time.Since(t1))
			if !stagesFirst {
				children = lr.replay(st.services[0], mirrors[0], env.Benchmark, in)
			}
			c.Release(in)
			inner = dec + service
		}
		if cerr != nil || d.Landmark != r.want {
			lr.failed++
			fmt.Printf("  layer pass request %d: decision %v, err %v, offline label %d\n", i, d, cerr, r.want)
			continue
		}
		self := service - children
		lr.serviceSelf = append(lr.serviceSelf, self)
		if stagesFirst {
			lr.selfStagesFirst = append(lr.selfStagesFirst, self)
		} else {
			lr.selfServiceFirst = append(lr.selfServiceFirst, self)
		}
		t2 := time.Now()
		if spec.wire == serve.WireBinary {
			out = serve.AppendBinaryDecision(out[:0], d)
		} else if out, err = json.Marshal(d); err != nil {
			return nil, err
		}
		enc := micros(time.Since(t2))
		lr.encode = append(lr.encode, enc)
		lr.inner = append(lr.inner, inner+enc)
	}
	lr.allocations(spec, st, reqs)
	return lr, nil
}

// replay times the service's internal stages for one decoded input and
// returns their summed µs: feature extraction of the production subset
// into a pooled row, the decision-cache key and lookup, and — on a miss —
// the tree walk. It makes the calls Service.Classify makes, in its order.
func (lr *layerResult) replay(svc *serve.Service, mirror *serve.DecisionCache, benchmark string, in core.Input) float64 {
	snap, ok := svc.Registry().Get(benchmark)
	if !ok {
		return 0
	}
	prod := snap.Model.Production
	set := snap.Model.Program.Features()
	if prod.Kind != core.SubsetTree || len(prod.Static) == 0 {
		t0 := time.Now()
		prod.ClassifyInput(set, in, cost.NewMeter())
		us := micros(time.Since(t0))
		lr.classify = append(lr.classify, us)
		return us
	}
	t0 := time.Now()
	M := set.NumFeatures()
	scratch := feature.GetBuffer(M + len(prod.Static))
	scratch = scratch[:M+len(prod.Static)]
	row := set.ExtractSubsetInto(scratch[:M], in, prod.Static, cost.NewMeter())
	ext := micros(time.Since(t0))
	lr.extract = append(lr.extract, ext)
	lr.extractedCount++

	t1 := time.Now()
	vals := scratch[M:]
	for i, f := range prod.Static {
		vals[i] = row[f]
	}
	key := engine.Fingerprint([]uint64{snap.Generation}, vals)
	_, hit := mirror.Get(key)
	look := micros(time.Since(t1))
	lr.lookup = append(lr.lookup, look)
	lr.mirrorLookups++
	if hit {
		feature.PutBuffer(scratch)
		return ext + look
	}
	lr.mirrorMisses++
	t2 := time.Now()
	label, _ := prod.PredictRow(row)
	cls := micros(time.Since(t2))
	mirror.Put(key, label)
	feature.PutBuffer(scratch)
	lr.classify = append(lr.classify, cls)
	return ext + look + cls
}

// allocations measures heap allocations per call of the decode step and
// of the service call, each in a loop of its own.
func (lr *layerResult) allocations(spec serveSpec, st *stack, reqs requestStream) {
	n := min(reqs.len(), 500)
	if spec.wire == serve.WireBinary {
		lr.decodeAllocs = allocsPer(n, func(i int) {
			c, in, err := serve.DecodeBinaryRequest(bytes.NewReader(reqs.at(i).body))
			if err == nil {
				c.Release(in)
			}
		})
		// A new generation makes every request a cache miss again, as
		// in the measured phases.
		st.newGeneration()
		svc := st.services[0]
		lr.serviceAllocs = allocsPer(n, func(i int) {
			_, _ = svc.ClassifyBinary(bytes.NewReader(reqs.at(i).body)) // answers were checked above
		})
		return
	}
	type decoded struct {
		name string
		in   core.Input
	}
	ins := make([]decoded, n)
	lr.decodeAllocs = allocsPer(n, func(i int) {
		var env struct {
			Benchmark string          `json:"benchmark"`
			Input     json.RawMessage `json:"input"`
		}
		if json.Unmarshal(reqs.at(i).body, &env) != nil {
			return
		}
		if c, err := serve.LookupCodec(env.Benchmark); err == nil {
			in, _ := c.DecodeJSON(env.Input)
			ins[i] = decoded{env.Benchmark, in}
		}
	})
	svc := st.services[0]
	lr.serviceAllocs = allocsPer(n, func(i int) {
		_, _ = svc.Classify(ins[i].name, ins[i].in) // answers were checked above
	})
}

// report sets the serve-side per-layer metrics and reconciles them with
// the client's median latency: lag + connection wait + transport +
// handler self + (router self) + service self + its stages + encode
// should add up to p50; what does not is printed as unattributed.
func (lr *layerResult) report(out *outcome, handlerUs, sendUs, lagUs, waitUs, clientP50, hitRate float64) {
	dec, ext, look, cls, enc := median(lr.decode), median(lr.extract), median(lr.lookup), median(lr.classify), median(lr.encode)
	if len(lr.extract) == 0 {
		ext, look = 0, 0
	}
	if len(lr.classify) == 0 {
		cls = 0
	}
	self := median(lr.serviceSelf)
	negative := 0
	for _, v := range lr.serviceSelf {
		if v < 0 {
			negative++
		}
	}
	out.note("service self time by order: stages replayed first %.2fus, service called first %.2fus (bias from warm caches: %+.2fus either way of the pooled %.2fus); %d of %d requests negative",
		median(lr.selfStagesFirst), median(lr.selfServiceFirst),
		(median(lr.selfServiceFirst)-median(lr.selfStagesFirst))/2, self, negative, len(lr.serviceSelf))
	if self < 0 {
		out.mismatch("layer pass: median service self time %.2fus is negative: the replayed stages cost more than the service call", self)
	}
	inner := median(lr.inner)
	handlerSelf := handlerUs - inner
	transport := sendUs - handlerUs
	missRate := 1.0
	if lr.mirrorLookups > 0 {
		missRate = float64(lr.mirrorMisses) / float64(lr.mirrorLookups)
	}
	route := 0.0
	if len(lr.routeSelf) > 0 {
		route = median(lr.routeSelf)
		out.set("fleet.route_self_us", route, "us")
	}
	out.set("serve.decode_us", dec, "us")
	out.set("serve.decode_allocs", lr.decodeAllocs, "count")
	if len(lr.extract) > 0 {
		out.set("feature.extract_us", ext, "us")
		out.set("serve.cache_lookup_us", look, "us")
	}
	if len(lr.classify) > 0 {
		out.set("dtree.classify_us", cls, "us")
	}
	out.set("serve.encode_us", enc, "us")
	out.set("serve.service_self_us", self, "us")
	out.set("serve.service_allocs", lr.serviceAllocs, "count")
	out.set("serve.handler_self_us", handlerSelf, "us")
	out.set("http.transport_us", transport, "us")
	attributed := lagUs + waitUs + transport + handlerSelf + route + self + dec + ext + look + cls*missRate + enc
	unattr := clientP50 - attributed
	out.set("serve.unattributed_us", unattr, "us")
	out.note("layer pass: %d requests, %d with a fixed feature subset, tree walked on %.3f of lookups",
		lr.n, lr.extractedCount, missRate)
	out.note("reconcile p50 %.1fus = lag %.1f + conn wait %.1f + transport %.1f + handler self %.1f + route self %.1f + service self %.1f + decode %.1f + extract %.1f + lookup %.1f + classify %.1f x %.3f + encode %.1f + unattributed %.1f",
		clientP50, lagUs, waitUs, transport, handlerSelf, route, self, dec, ext, look, cls, missRate, enc, unattr)
	out.note("served decision-cache hit rate %.4f; layer-pass mirror hit rate %.4f", hitRate, 1-missRate)
}
