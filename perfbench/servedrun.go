package main

import (
	"fmt"
	"sort"
	"time"

	"parlist/internal/engine"
)

// maxLagMS is the generator lag (p99, ms) beyond which an open-loop run
// is marked invalid: the schedule, not the system, may have set its
// latency.
const maxLagMS = 20

// servedSetups is how many times set-up is repeated to report its median.
const servedSetups = 15

// A served run alternates rounds closed-loop and open-loop phases. It
// reports the median goodput over the closed-loop phases and, for each
// latency percentile, the median over equal windows of the open-loop
// phases, so a burst of host noise moves one slice rather than the
// result.
const (
	rounds          = 10
	windowsPerRound = 2
)

// setUpDaemon starts parlistd, connects and warms every (op, size
// class) of the workload. It returns the set-up time, which excludes
// input generation and reference computation.
func (b *bench) setUpDaemon(extra ...string) (*daemon, *target, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(b.daemonBin, extra...)
	if err != nil {
		return nil, nil, 0, err
	}
	tg, err := dialTarget(d)
	if err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	warmUp(tg, b.w, &b.tl)
	b.daemonGMP = procs
	return d, tg, time.Since(t0), nil
}

// servedE2E measures the end-to-end metrics of a served workload:
// set-up, closed-loop goodput and open-loop latency at the fixed rate.
func (b *bench) servedE2E() error {
	var setups []float64
	var d *daemon
	var tg *target
	for i := 0; i < servedSetups; i++ {
		var err error
		var s time.Duration
		d, tg, s, err = b.setUpDaemon()
		if err != nil {
			return err
		}
		setups = append(setups, s.Seconds())
		if i < servedSetups-1 {
			tg.close()
			d.stop()
		}
	}
	defer d.stop()
	defer tg.close()
	b.setSetup(setups)

	var good, nodes []float64
	var open phase
	next, n := 0, 0
	for i := 0; i < rounds; i++ {
		var p phase
		p, next = closedLoop(tg, b.w, &b.tl, nil, window, b.slice(0.35/rounds), next)
		good = append(good, goodput(p, b.w.limit))
		nodes = append(nodes, nodesPerSec(p)/1e6)
		n += len(p.outs)
		p, next = openLoop(tg, b.w, &b.tl, nil, b.w.rate, b.slice(0.65/rounds), next)
		open.outs = append(open.outs, p.outs...)
		open.elapsed += p.elapsed
	}
	b.rep.set("goodput_rps", median(good), "1/s", n)
	b.rep.set("throughput_mnodes_s", median(nodes), "Mnodes/s", n)
	b.setLatencies(open, rounds*windowsPerRound, false)
	b.rep.set("peak_rss_mb", d.peakRSSMB(), "MiB", 1)
	return nil
}

// setSetup reports the median set-up time and notes every sample in the
// order taken.
func (b *bench) setSetup(setups []float64) {
	b.rep.note("setup_s samples %.4f s", setups)
	b.rep.set("setup_s", median(setups), "s", len(setups))
}

// setLatencies reports latency percentiles timed from each request's
// due time: each is the median over windows equal spans of due times.
// A failed request counts as lasting the whole phase. The median is the
// end-to-end metric. The tail percentiles vary from run to run with the
// CPU time the host's hypervisor takes by more than any bound the
// benchmark could hold, so the untraced run prints them as notes and the
// traced run reports them as ungated e2e.* rows. For an open loop
// (windows > 1) it also marks a run whose generator fell behind.
func (b *bench) setLatencies(p phase, windows int, traced bool) {
	sort.Slice(p.outs, func(i, j int) bool { return p.outs[i].due.Before(p.outs[j].due) })
	n := len(p.outs)
	var q50, q90, q99 []float64
	for k := 0; k < windows; k++ {
		lat := latenciesMS(p.outs[k*n/windows:(k+1)*n/windows], ms(p.elapsed))
		q50 = append(q50, quantile(lat, 0.50))
		q90 = append(q90, quantile(lat, 0.90))
		q99 = append(q99, quantile(lat, 0.99))
	}
	if traced {
		b.rep.set("e2e.latency_p90_ms", median(q90), "ms", n)
		b.rep.set("e2e.latency_p99_ms", median(q99), "ms", n)
	} else {
		b.rep.set("latency_p50_ms", median(q50), "ms", n)
		b.rep.note("latency_p90_ms %.4f ms, latency_p99_ms %.4f ms (samples=%d; not gated)",
			median(q90), median(q99), n)
	}
	if windows == 1 {
		return
	}
	lag := quantile(lagsMS(p.outs), 0.99)
	b.rep.note("open-loop %d requests at %.0f/s; generator lag p99 %.3f ms", n, b.w.rate, lag)
	if lag > maxLagMS {
		b.rep.invalid = fmt.Sprintf("generator fell behind its schedule: lag p99 %.1f ms > %d ms; "+
			"latencies are timed from due times, so they include the lag", lag, maxLagMS)
	}
}

// servedTraced is the traced run of a served workload. It reports the
// per-layer metrics: the obs A/B against -trace-sample -1, the cost of
// the benchmark's own spans, a traced open-loop phase decomposed by the
// response stamps, and the in-process layer stack.
func (b *bench) servedTraced() error {
	on, tgOn, _, err := b.setUpDaemon()
	if err != nil {
		return err
	}
	defer on.stop()
	defer tgOn.close()
	// -trace-sample 0 is mapped to "sample everything" by server.New, so
	// the spans-off side asks for a negative rate. The collector and the
	// span recorder are still built and attached, exactly as parlistd
	// builds them; only head sampling is off.
	off, tgOff, _, err := b.setUpDaemon("-trace-sample", "-1")
	if err != nil {
		return err
	}
	defer off.stop()
	defer tgOff.close()

	// Alternating closed-loop slices: daemon tracing on, daemon tracing
	// off, and daemon tracing on with the benchmark's spans recorded as
	// each request finishes. The first and last differ only in that
	// recording.
	var gOn, gOff, gBench []float64
	next := 0
	sp := &spanLog{}
	for r := 0; r < 3; r++ {
		var p phase
		p, next = closedLoop(tgOn, b.w, &b.tl, nil, window, b.slice(0.08), next)
		gOn = append(gOn, goodput(p, b.w.limit))
		p, next = closedLoop(tgOff, b.w, &b.tl, nil, window, b.slice(0.08), next)
		gOff = append(gOff, goodput(p, b.w.limit))
		p, next = closedLoop(tgOn, b.w, &b.tl, sp, window, b.slice(0.08), next)
		gBench = append(gBench, goodput(p, b.w.limit))
	}
	mOn, mOff, mBench := median(gOn), median(gOff), median(gBench)
	b.rep.set("obs.goodput_trace_on_rps", mOn, "1/s", len(gOn))
	b.rep.set("obs.goodput_trace_off_rps", mOff, "1/s", len(gOff))
	b.rep.set("obs.trace_overhead_pct", 100*ratio(mOff-mOn, mOff), "%", len(gOn))
	b.rep.set("obs.bench_trace_overhead_pct", 100*ratio(mOn-mBench, mOn), "%", len(gBench))

	// Traced open-loop phase at the workload's fixed rate.
	m0, err := on.scrape()
	if err != nil {
		return err
	}
	e0, err := on.engineServed()
	if err != nil {
		return err
	}
	cpuD0, cpuB0 := on.cpu(), selfCPU()
	open, _ := openLoop(tgOn, b.w, &b.tl, sp, b.w.rate, b.slice(0.4), next)
	cpuD, cpuB := on.cpu()-cpuD0, selfCPU()-cpuB0
	m1, err := on.scrape()
	if err != nil {
		return err
	}
	e1, err := on.engineServed()
	if err != nil {
		return err
	}
	b.setLatencies(open, 6, true)
	nreq := float64(len(open.outs))
	b.rep.set("loadgen.lag_p99_ms", quantile(lagsMS(open.outs), 0.99), "ms", len(open.outs))
	b.rep.set("loadgen.cpu_us_per_req", us(cpuB)/nreq, "us", len(open.outs))
	b.rep.set("server.cpu_us_per_req", us(cpuD)/nreq, "us", len(open.outs))
	b.setStampMetrics(open.outs)
	b.rep.set("pool.retries", m1["parlist_retries_total"]-m0["parlist_retries_total"], "count", 1)
	b.rep.set("pool.rejected", m1["parlist_queue_shed_total"]-m0["parlist_queue_shed_total"], "count", 1)
	b.rep.set("pool.engine_skew", skew(e0, e1), "ratio", len(e1))

	st, err := runStack(b, b.probe(), on, 10)
	if err != nil {
		return err
	}
	if b.w.httpEvery == 0 {
		// serve_uniform sends no HTTP traffic; its HTTP share comes
		// from the layer stack's HTTP row.
		b.setHTTP(st.httpOuts)
	}
	b.setAlloc(st.allocBytes, st.allocReqs, st.arenaGets, st.arenaHits)
	b.setPRAM()
	return sp.write(b.outDir, b.w.name)
}

// setStampMetrics decomposes each request's client-side latency (send to
// receive) into inbox, queue, service and wire using the server's
// life-cycle stamps: the four parts add up to the latency by
// construction, and stamps out of order are counted.
func (b *bench) setStampMetrics(outs []*outcome) {
	var inbox, queue, service, serviceRank, wire, batched []float64
	var httpOuts []*outcome
	bytes, nbin, disorder, shed := 0, 0, 0, 0
	for _, o := range outs {
		if o.class == outShed {
			shed++
		}
		if o.class != outOK {
			continue
		}
		t := o.timing
		if o.sent.After(t.Enqueue) || t.Enqueue.After(t.Flush) || t.Flush.After(t.Service) ||
			t.Service.After(t.Respond) || t.Respond.After(o.recv) {
			disorder++
		}
		inbox = append(inbox, ms(t.Flush.Sub(t.Enqueue)))
		queue = append(queue, ms(t.Service.Sub(t.Flush)))
		svc := ms(t.Respond.Sub(t.Service))
		service = append(service, svc)
		if o.in.req.Op == engine.OpRank {
			serviceRank = append(serviceRank, svc)
		}
		batched = append(batched, float64(o.batched))
		if o.http {
			httpOuts = append(httpOuts, o)
			continue
		}
		wire = append(wire, ms(o.recv.Sub(o.sent)-t.Respond.Sub(t.Enqueue)))
		bytes += o.bytes
		nbin++
	}
	b.rep.note("%d of %d traced requests had stamps out of order (send<=enqueue<=flush<=service<=respond<=receive)",
		disorder, len(outs))
	b.rep.set("server.inbox_wait_ms.p50", quantile(inbox, 0.5), "ms", len(inbox))
	b.rep.set("server.inbox_wait_ms.p99", quantile(inbox, 0.99), "ms", len(inbox))
	b.rep.set("server.wire_ms.p50", quantile(wire, 0.5), "ms", len(wire))
	b.rep.set("server.wire_ms.p99", quantile(wire, 0.99), "ms", len(wire))
	b.rep.set("server.batch_mean", mean(batched), "count", len(batched))
	b.rep.set("server.shed_ratio", ratio(float64(shed), float64(len(outs))), "ratio", len(outs))
	b.rep.set("server.frame_bytes_per_req", ratio(float64(bytes), float64(nbin)), "B", nbin)
	b.rep.set("pool.queue_wait_ms.p50", quantile(queue, 0.5), "ms", len(queue))
	b.rep.set("pool.queue_wait_ms.p99", quantile(queue, 0.99), "ms", len(queue))
	b.rep.set("engine.service_ms.p50", quantile(service, 0.5), "ms", len(service))
	b.rep.set("engine.service_ms.p50.rank", quantile(serviceRank, 0.5), "ms", len(serviceRank))
	if len(httpOuts) > 0 {
		b.setHTTP(httpOuts)
	}
}

// setHTTP reports the HTTP/JSON requests' client-side latency.
func (b *bench) setHTTP(outs []*outcome) {
	var xs []float64
	for _, o := range outs {
		if o.class == outOK {
			xs = append(xs, ms(o.recv.Sub(o.sent)))
		}
	}
	b.rep.set("server.http_ms.p50", quantile(xs, 0.5), "ms", len(xs))
	b.rep.set("server.http_ms.p99", quantile(xs, 0.99), "ms", len(xs))
}

// skew is the busiest engine's share over the mean, from two per-engine
// served snapshots.
func skew(before, after []float64) float64 {
	var d []float64
	for i := range after {
		v := after[i]
		if i < len(before) {
			v -= before[i]
		}
		d = append(d, v)
	}
	mx := 0.0
	for _, v := range d {
		mx = max(mx, v)
	}
	return ratio(mx, mean(d))
}

// probe returns the inputs the layer stack runs at one in flight: a
// slice of the workload's own mix covering every op it uses, ordered by
// op and size so that no row pays for switching between them more than
// another.
func (b *bench) probe() []*input {
	var out []*input
	perOp := map[string]int{}
	limit := map[string]int{"serve_uniform": 8, "serve_mixed": 4, "bulk_large": 1}[b.w.name]
	for _, in := range b.w.inputs {
		if in.shards > 0 {
			continue
		}
		op := in.req.Op.String()
		if perOp[op] < limit {
			perOp[op]++
			out = append(out, in)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].req.Op != out[j].req.Op {
			return out[i].req.Op < out[j].req.Op
		}
		return out[i].n < out[j].n
	})
	return out
}

// setPRAM reports the paper's cost model for the workload's request mix:
// exact PRAM steps and work per request, as charged by the reference
// pram.Sequential engine on the workload's own inputs.
func (b *bench) setPRAM() {
	var steps, work float64
	n := 200000
	if n > len(b.w.order) {
		n = len(b.w.order)
	}
	for i := 0; i < n; i++ {
		ref := b.w.pick(i).ref
		steps += float64(ref.Stats.Time)
		work += float64(ref.Stats.Work)
	}
	b.rep.set("pram.steps_per_req", steps/float64(n), "count", n)
	b.rep.set("pram.work_per_req", work/float64(n), "count", n)
}
