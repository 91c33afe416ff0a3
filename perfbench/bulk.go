package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parlist/internal/engine"
	"parlist/internal/obs"
	"parlist/internal/pram"
)

// bulkSetups is how many times bulk_large's set-up is repeated.
const bulkSetups = 5

// bulkCallers is the number of closed-loop callers on the in-process pool.
const bulkCallers = 2

// newBulkPool builds bulk_large's pool: two native engines, no server.
func newBulkPool(observer engine.PoolObserver) *engine.EnginePool {
	return engine.NewPool(engine.PoolConfig{Engines: 2, Observer: observer,
		Engine: engine.Config{Processors: processors, Exec: pram.Native}})
}

// bulkReq is one finished bulk request.
type bulkReq struct {
	o        *outcome
	m        engine.RequestMetrics
	sharding *engine.ShardStats
	gen      time.Duration // caller time outside the pool call
}

// bulkCall serves in on pool: ShardedDo for a sharded input; otherwise
// Do, or Submit + Wait when the future's metrics are wanted.
func bulkCall(pool *engine.EnginePool, in *input, metrics bool, tc obs.TraceContext) bulkReq {
	req := in.req
	req.Trace = tc
	br := bulkReq{o: &outcome{in: in}}
	br.o.sent = time.Now()
	var r *engine.Result
	var err error
	switch {
	case in.shards > 0:
		r, err = pool.ShardedDo(ctxBG, req, in.shards)
	case metrics:
		var f *engine.Future
		if f, err = pool.Submit(ctxBG, req); err == nil {
			r, err = f.Wait(ctxBG)
			br.m = f.Metrics()
		}
	default:
		r, err = pool.Do(ctxBG, req)
	}
	br.o.recv = time.Now()
	br.o.class = resultClass(in, r, err)
	if err == nil {
		br.sharding = r.Sharding
	}
	return br
}

// bulkLoop runs bulkCallers closed-loop callers for dur. Each request is
// due when its caller's previous one returned; requests draw the
// workload's kinds round-robin from next. With sp set, each request's
// spans are recorded as it finishes, on the caller's time.
func (b *bench) bulkLoop(pool *engine.EnginePool, dur time.Duration, next *atomic.Int64,
	metrics bool, src *obs.TraceSource, sp *spanLog) ([]bulkReq, time.Duration) {
	var mu sync.Mutex
	var out []bulkReq
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for c := 0; c < bulkCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Now()
			for due.Before(end) {
				in := b.w.pick(int(next.Add(1) - 1))
				var tc obs.TraceContext
				if src != nil {
					tc = src.NewContext(true)
				}
				br := bulkCall(pool, in, metrics, tc)
				br.o.due = due
				b.tl.add(br.o.class)
				if sp != nil {
					sp.addPooled(br.o.sent, br.o.recv, br.m.QueueWait, br.m.Service)
				}
				now := time.Now()
				br.gen = br.o.sent.Sub(due) + now.Sub(br.o.recv)
				mu.Lock()
				out = append(out, br)
				mu.Unlock()
				due = now
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// setUpBulk builds the pool and warms every request kind once.
func (b *bench) setUpBulk() (*engine.EnginePool, time.Duration) {
	t0 := time.Now()
	pool := newBulkPool(nil)
	for _, in := range b.w.inputs[:4] {
		b.tl.add(bulkCall(pool, in, false, obs.TraceContext{}).o.class)
	}
	return pool, time.Since(t0)
}

// bulkE2E measures bulk_large's end-to-end metrics on the in-process pool.
func (b *bench) bulkE2E() error {
	// Peak memory is the pool's, sampled from set-up on: the reference
	// engine's memory is returned to the OS first.
	debug.FreeOSMemory()
	rss := sampleRSS()
	var setups []float64
	var pool *engine.EnginePool
	for i := 0; i < bulkSetups; i++ {
		var s time.Duration
		pool, s = b.setUpBulk()
		setups = append(setups, s.Seconds())
		if i < bulkSetups-1 {
			// Release this pool's arenas before the next set-up, so the
			// peak is one pool's and not the sum of the repeats.
			pool.Close()
			runtime.GC()
			debug.FreeOSMemory()
		}
	}
	defer pool.Close()
	b.setSetup(setups)

	var next atomic.Int64
	reqs, elapsed := b.bulkLoop(pool, b.budget, &next, false, nil, nil)
	p := phase{elapsed: elapsed}
	for _, r := range reqs {
		p.outs = append(p.outs, r.o)
	}
	b.rep.set("goodput_rps", goodput(p, b.w.limit), "1/s", len(p.outs))
	b.rep.set("throughput_mnodes_s", nodesPerSec(p)/1e6, "Mnodes/s", len(p.outs))
	b.setLatencies(p, 1, false)
	peak, samples := rss.stop()
	b.rep.set("peak_rss_mb", peak, "MiB", samples)
	return nil
}

// bulkTraced is bulk_large's traced run: pool and engine layers from the
// futures' metrics and the pool's statistics, the sharded plan's
// accounting, an in-process obs A/B, and the layer stack on the
// workload's own lists (which also gives the server rows through a
// parlistd started for it).
func (b *bench) bulkTraced() error {
	pool, _ := b.setUpBulk()
	var next atomic.Int64

	// Untraced and traced slices of the same closed loop, both through
	// Submit + Wait: only the traced one records spans, so their rates
	// give the cost of the benchmark's own spans.
	plain, plainT := b.bulkLoop(pool, b.slice(0.25), &next, true, nil, nil)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ps0 := pool.Stats()
	sp := &spanLog{}
	traced, tracedT := b.bulkLoop(pool, b.slice(0.35), &next, true, nil, sp)
	runtime.ReadMemStats(&ms1)
	ps1 := pool.Stats()
	pool.Close()
	rPlain := float64(len(plain)) / plainT.Seconds()
	rTraced := float64(len(traced)) / tracedT.Seconds()

	tp := phase{elapsed: tracedT}
	for _, r := range traced {
		tp.outs = append(tp.outs, r.o)
	}
	b.setLatencies(tp, 1, true)
	var queue, service, serviceRank, lag, gen []float64
	var ss []*engine.ShardStats
	for _, r := range traced {
		lag = append(lag, ms(r.o.sent.Sub(r.o.due)))
		gen = append(gen, us(r.gen))
		if r.sharding != nil {
			ss = append(ss, r.sharding)
			continue
		}
		queue = append(queue, ms(r.m.QueueWait))
		service = append(service, ms(r.m.Service))
		if r.o.in.req.Op == engine.OpRank {
			serviceRank = append(serviceRank, ms(r.m.Service))
		}
	}
	nreq := len(traced)
	skewBefore, skewAfter := make([]float64, len(ps0.PerEngine)), make([]float64, len(ps1.PerEngine))
	for i := range ps1.PerEngine {
		skewAfter[i] = float64(ps1.PerEngine[i].Served)
		if i < len(ps0.PerEngine) {
			skewBefore[i] = float64(ps0.PerEngine[i].Served)
		}
	}
	gets, hits := arenaDelta(ps0, ps1)

	// obs A/B: the collector and span recorder attached on both sides,
	// sampled trace contexts on one side only.
	pools := [2]*engine.EnginePool{}
	srcs := [2]*obs.TraceSource{obs.NewTraceSource(1), nil}
	for i := range pools {
		col := obs.NewCollector(obs.NewRegistry())
		col.AttachSpans(obs.NewSpanRecorder(obs.NewTraceSource(int64(i+1)), 0.1))
		pools[i] = newBulkPool(col)
		for _, in := range b.w.inputs[:4] {
			b.tl.add(bulkCall(pools[i], in, false, obs.TraceContext{}).o.class)
		}
	}
	var rates [2][]float64
	for round := 0; round < 2; round++ {
		for i := range pools {
			rs, el := b.bulkLoop(pools[i], b.slice(0.1), &next, false, srcs[i], nil)
			rates[i] = append(rates[i], float64(len(rs))/el.Seconds())
		}
	}
	for _, p := range pools {
		p.Close()
	}
	on, off := median(rates[0]), median(rates[1])

	d, err := startDaemon(b.daemonBin)
	if err != nil {
		return err
	}
	defer d.stop()
	b.daemonGMP = procs
	cpu0 := d.cpu()
	const passes = 2
	st, err := runStack(b, b.probe(), d, passes)
	if err != nil {
		return err
	}
	stackReqs := float64(2 * (passes + 1) * len(b.probe()))
	// The server rows come from the stack's traffic to parlistd: the
	// workload itself bypasses the server.
	b.setStampMetrics(append(st.binOuts, st.httpOuts...))
	b.rep.set("server.cpu_us_per_req", us(d.cpu()-cpu0)/stackReqs, "us", int(stackReqs))

	// The pool and engine rows come from the workload's own traffic and
	// replace the stack-derived values set just above.
	b.rep.set("pool.queue_wait_ms.p50", quantile(queue, 0.5), "ms", len(queue))
	b.rep.set("pool.queue_wait_ms.p99", quantile(queue, 0.99), "ms", len(queue))
	b.rep.set("engine.service_ms.p50", quantile(service, 0.5), "ms", len(service))
	b.rep.set("engine.service_ms.p50.rank", quantile(serviceRank, 0.5), "ms", len(serviceRank))
	b.rep.set("pool.retries", float64(ps1.Retries-ps0.Retries), "count", nreq)
	b.rep.set("pool.rejected", float64(ps1.Rejected-ps0.Rejected), "count", nreq)
	b.rep.set("pool.engine_skew", skew(skewBefore, skewAfter), "ratio", len(skewAfter))
	b.setAlloc(ms1.TotalAlloc-ms0.TotalAlloc, nreq, gets, hits)
	b.setPlan(ss)
	b.rep.set("loadgen.lag_p99_ms", quantile(lag, 0.99), "ms", len(lag))
	b.rep.set("loadgen.cpu_us_per_req", mean(gen), "us", len(gen))
	b.rep.set("obs.goodput_trace_on_rps", on, "1/s", len(rates[0]))
	b.rep.set("obs.goodput_trace_off_rps", off, "1/s", len(rates[1]))
	b.rep.set("obs.trace_overhead_pct", 100*ratio(off-on, off), "%", len(rates[0]))
	b.rep.set("obs.bench_trace_overhead_pct", 100*ratio(rPlain-rTraced, rPlain), "%", nreq)
	b.setPRAM()
	return sp.write(b.outDir, b.w.name)
}

// rssSampler tracks this process's peak resident set by polling VmRSS.
type rssSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	peak    float64
	samples int
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			s.peak = max(s.peak, vmRSS())
			s.samples++
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MiB and the sample count.
func (s *rssSampler) stop() (float64, int) {
	close(s.stopc)
	<-s.done
	return s.peak, s.samples
}

// vmRSS returns this process's resident set in MiB.
func vmRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
