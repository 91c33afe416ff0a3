package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"parlist/internal/engine"
	"parlist/internal/obs"
	"parlist/internal/pram"
	"parlist/internal/server"
)

// stackLayers are the layer-stack rows, innermost first. The gap between
// adjacent rows is the cost of one layer.
var stackLayers = []string{"engine", "pool", "handler", "binary", "http"}

// stackResult is what one layer-stack probe measured beyond its rows.
type stackResult struct {
	binOuts, httpOuts []*outcome
	// Pool-row allocation and arena counters (in-process, parlistd-like
	// pool).
	allocBytes           uint64
	allocReqs            int
	arenaGets, arenaHits uint64
}

// runStack sends the probe inputs at one in flight through each layer:
// Engine.RunInto on a warm native engine, EnginePool.Do and the server's
// HTTP handler in-process (built the way parlistd builds them, with the
// collector and span recorder attached), then server.Client.Do and
// HTTP/JSON against the running daemon. Each row is the mean time per
// request of a pass; the reported value is the median over passes.
func runStack(b *bench, probe []*input, d *daemon, passes int) (*stackResult, error) {
	eng := engine.New(engine.Config{Processors: processors, Exec: pram.Native})
	defer eng.Close()
	reg := obs.NewRegistry()
	col := obs.NewCollector(reg)
	rec := obs.NewSpanRecorder(obs.NewTraceSource(1), 0.1)
	col.AttachSpans(rec)
	pool := engine.NewPool(engine.PoolConfig{Engines: 2, QueueDepth: 64, Observer: col,
		Engine: engine.Config{Processors: processors, Exec: pram.Native}})
	srv, err := server.New(server.Config{Pool: pool, BatchSize: 16, MaxWait: 500 * time.Microsecond,
		Registry: reg, Trace: rec, TraceSample: 1})
	if err != nil {
		pool.Close()
		return nil, err
	}
	defer srv.Shutdown(ctxBG)
	h := srv.Handler()
	tg, err := dialTarget(d)
	if err != nil {
		return nil, err
	}
	defer tg.close()
	for _, in := range probe {
		if in.body == nil {
			if in.body, err = json.Marshal(jsonBody(&in.req)); err != nil {
				return nil, err
			}
		}
	}

	sr := &stackResult{}
	rows := map[string][]float64{}
	engineNS := make([][]float64, len(probe))
	var res engine.Result
	for pass := 0; pass <= passes; pass++ { // pass 0 warms every layer
		for _, layer := range stackLayers {
			// A collection between rows keeps the previous row's garbage
			// out of this row's time.
			runtime.GC()
			var ms0 runtime.MemStats
			var ps0 engine.PoolStats
			if layer == "pool" {
				runtime.ReadMemStats(&ms0)
				ps0 = pool.Stats()
			}
			var total time.Duration
			for i, in := range probe {
				o := &outcome{in: in, http: layer == "http"}
				o.sent = time.Now()
				switch layer {
				case "engine":
					err := eng.RunInto(ctxBG, in.req, &res)
					o.recv = time.Now()
					o.class = resultClass(in, &res, err)
				case "pool":
					r, err := pool.Do(ctxBG, in.req)
					o.recv = time.Now()
					o.class = resultClass(in, r, err)
				case "handler":
					hr := httptest.NewRequest(http.MethodPost, "/v1/"+in.req.Op.String(), bytes.NewReader(in.body))
					rr := httptest.NewRecorder()
					o.sent = time.Now()
					h.ServeHTTP(rr, hr)
					o.recv = time.Now()
					decodeHTTP(o, rr.Code, rr.Body.Bytes())
				case "binary":
					r, err := tg.bin.Do(ctxBG, in.req)
					o.recv = time.Now()
					fillBinary(o, r, err == nil || r != nil)
				case "http":
					tg.doHTTP(o)
				}
				b.tl.add(o.class)
				dt := o.recv.Sub(o.sent)
				total += dt
				if pass == 0 {
					continue
				}
				if layer == "engine" {
					engineNS[i] = append(engineNS[i], float64(dt))
				}
				switch layer {
				case "binary":
					sr.binOuts = append(sr.binOuts, o)
				case "http":
					sr.httpOuts = append(sr.httpOuts, o)
				}
			}
			if pass == 0 {
				continue
			}
			rows[layer] = append(rows[layer], us(total)/float64(len(probe)))
			if layer == "pool" {
				var ms1 runtime.MemStats
				runtime.ReadMemStats(&ms1)
				sr.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
				sr.allocReqs += len(probe)
				g, h := arenaDelta(ps0, pool.Stats())
				sr.arenaGets += g
				sr.arenaHits += h
			}
		}
	}
	for _, layer := range stackLayers {
		b.rep.set("stack."+layer+"_us", median(rows[layer]), "us", len(rows[layer])*len(probe))
	}

	// The kernel rows: warm native RunInto time per list node, over the
	// probe mix and over its rank requests alone.
	var ns, nodes, nsRank, nodesRank float64
	for i, in := range probe {
		t := median(engineNS[i])
		ns += t
		nodes += float64(in.n)
		if in.req.Op == engine.OpRank {
			nsRank += t
			nodesRank += float64(in.n)
		}
	}
	b.rep.set("kernel.ns_per_node", ns/nodes, "ns", passes*len(probe))
	b.rep.set("kernel.ns_per_node.rank", ratio(nsRank, nodesRank), "ns", passes*len(probe))

	if b.w.served {
		// Served workloads never shard; the plan layer is probed with
		// ShardedDo (K = 2) on the mix's rank and prefix inputs.
		b.planProbe(pool, probe)
	}
	return sr, nil
}

// resultClass classifies an in-process call.
func resultClass(in *input, r *engine.Result, err error) int {
	if err != nil || r == nil {
		return outStatus
	}
	return classify(in, r)
}

// fillBinary records a binary-framing response on o.
func fillBinary(o *outcome, r *server.Response, ok bool) {
	if !ok || r == nil {
		o.class = outTransport
		return
	}
	o.batched, o.timing = r.Batched, r.Timing
	o.bytes = requestFrameBytes(&o.in.req) + responseFrameBytes(&r.Result)
	o.class = statusClass(r.Status)
	if o.class == outOK {
		o.class = classify(o.in, &r.Result)
	}
}

// arenaDelta returns the workspace-arena gets and hits between two pool
// snapshots, summed over engines.
func arenaDelta(a, b engine.PoolStats) (gets, hits uint64) {
	for i, e := range b.PerEngine {
		gets += e.Stats.Arena.Gets
		hits += e.Stats.Arena.Hits
		if i < len(a.PerEngine) {
			gets -= a.PerEngine[i].Stats.Arena.Gets
			hits -= a.PerEngine[i].Stats.Arena.Hits
		}
	}
	return gets, hits
}

// planProbe runs sharded requests (K = 2) through pool on the probe's
// rank and prefix inputs, once to warm and once measured.
func (b *bench) planProbe(pool *engine.EnginePool, probe []*input) {
	var ss []*engine.ShardStats
	for pass := 0; pass < 2; pass++ {
		for _, in := range probe {
			if in.req.Op != engine.OpRank && in.req.Op != engine.OpPrefix {
				continue
			}
			r, err := pool.ShardedDo(ctxBG, in.req, 2)
			switch {
			case err != nil:
				b.tl.add(outStatus)
			case sameResult(r, in.ref, false):
				b.tl.add(outOK)
			default:
				b.tl.add(outWrong)
			}
			if pass == 1 && err == nil {
				ss = append(ss, r.Sharding)
			}
		}
	}
	b.setPlan(ss)
}

// setPlan reports the mean sharded-plan accounting per request.
func (b *bench) setPlan(ss []*engine.ShardStats) {
	var xb, seg, imb, contract []float64
	for _, s := range ss {
		xb = append(xb, float64(s.ExchangeBytes))
		seg = append(seg, float64(s.Segments))
		imb = append(imb, 1000*s.Imbalance)
		var mx time.Duration
		for _, d := range s.ContractWall {
			mx = max(mx, d)
		}
		contract = append(contract, ms(mx))
	}
	b.rep.set("plan.exchange_bytes", mean(xb), "B", len(ss))
	b.rep.set("plan.segments", mean(seg), "count", len(ss))
	b.rep.set("plan.imbalance_permille", mean(imb), "permille", len(ss))
	b.rep.set("plan.contract_ms", median(contract), "ms", len(ss))
}

// setAlloc reports allocation and arena reuse per pool request.
func (b *bench) setAlloc(allocBytes uint64, reqs int, gets, hits uint64) {
	b.rep.set("engine.alloc_bytes_per_req", ratio(float64(allocBytes), float64(reqs)), "B", reqs)
	b.rep.set("engine.arena_hit_ratio", ratio(float64(hits), float64(gets)), "ratio", int(gets))
}
