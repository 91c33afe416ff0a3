package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"parlist/internal/engine"
	"parlist/internal/server"
)

// daemon is one parlistd child process on loopback ports it picked
// itself.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
	exited   chan struct{}
}

// startDaemon runs parlistd with its defaults plus -exec native, a fixed
// trace seed and any extra flags, and returns once /healthz answers.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	args := append([]string{"-http", "127.0.0.1:0", "-binary", "127.0.0.1:0",
		"-exec", "native", "-trace-seed", "1"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		var a [2]string
		for sc.Scan() {
			line := sc.Text()
			if s, ok := strings.CutPrefix(line, "parlistd: HTTP/JSON on http://"); ok {
				a[0] = s
			}
			if s, ok := strings.CutPrefix(line, "parlistd: binary framing on "); ok {
				a[1] = s
			}
			if a[0] != "" && a[1] != "" {
				addrs <- a
				a = [2]string{}
			}
		}
		io.Copy(io.Discard, out)
	}()
	go func() { cmd.Wait(); close(d.exited) }()
	select {
	case a := <-addrs:
		d.httpAddr, d.binAddr = a[0], a[1]
	case <-d.exited:
		return nil, errors.New("parlistd exited during start-up")
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, errors.New("parlistd did not report its listeners")
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := http.Get("http://" + d.httpAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("parlistd /healthz never answered")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain overruns.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() float64 { return vmHWM(d.cmd.Process.Pid) }

// cpu reads the daemon's user + system CPU time.
func (d *daemon) cpu() time.Duration { return procCPU(d.cmd.Process.Pid) }

// vmHWM returns a process's peak resident set in MiB from /proc.
func vmHWM(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, _ := strconv.ParseFloat(f[0], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// procCPU returns utime + stime of a process (clock ticks at 100 Hz).
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// scrape returns the /metrics families summed over their label sets.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err == nil {
			m[name] += v
		}
	}
	return m, sc.Err()
}

// engineServed reads the per-engine served counts from /statusz.
func (d *daemon) engineServed() ([]float64, error) {
	resp, err := http.Get("http://" + d.httpAddr + "/statusz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var served []float64
	inTable := false
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[0] == "engine" && len(f) > 1 && f[1] == "served":
			inTable = true
		case inTable && len(f) >= 2:
			if _, err := strconv.Atoi(f[0]); err != nil {
				inTable = false
				continue
			}
			v, _ := strconv.ParseFloat(f[1], 64)
			served = append(served, v)
		default:
			inTable = false
		}
	}
	return served, nil
}

// tenant names the benchmark's binary-framing connections.
const tenant = "perfbench"

// outcome is one request as the benchmark saw it.
type outcome struct {
	in              *input
	http            bool
	due, sent, recv time.Time
	class           int
	batched         int
	timing          server.Timing
	bytes           int // computed request + response frame bytes (binary only)
}

func (o *outcome) latency() time.Duration { return o.recv.Sub(o.due) }

// target sends requests to one parlistd over its two framings: a
// pipelined binary connection and one HTTP/JSON connection.
type target struct {
	bin   *server.Client
	hc    *http.Client
	base  string
	httpQ chan httpJob
	wg    sync.WaitGroup
}

type httpJob struct {
	o    *outcome
	done func(*outcome)
}

func dialTarget(d *daemon) (*target, error) {
	c, err := server.Dial(d.binAddr, tenant)
	if err != nil {
		return nil, err
	}
	t := &target{
		bin: c,
		hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
			DisableCompression: true}},
		base: "http://" + d.httpAddr + "/v1/",
		// Sized so the open-loop generator never blocks on the single
		// HTTP connection: a backlog waits here, timed from its due time.
		httpQ: make(chan httpJob, 1<<16),
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for j := range t.httpQ {
			j.o.sent = time.Now()
			t.doHTTP(j.o)
			j.done(j.o)
		}
	}()
	return t, nil
}

func (t *target) close() {
	close(t.httpQ)
	t.wg.Wait()
	t.bin.Close()
	t.hc.CloseIdleConnections()
}

// send issues o's request and calls done from another goroutine once
// it has an outcome. HTTP requests queue for the single HTTP connection.
func (t *target) send(o *outcome, done func(*outcome)) {
	if o.http {
		t.httpQ <- httpJob{o, done}
		return
	}
	o.sent = time.Now()
	ch, err := t.bin.Submit(o.in.req)
	if err != nil {
		o.recv, o.class = time.Now(), outTransport
		go done(o)
		return
	}
	go func() {
		r, ok := <-ch
		o.recv = time.Now()
		fillBinary(o, r, ok)
		done(o)
	}()
}

func statusClass(st byte) int {
	switch st {
	case server.StatusOK:
		return outOK
	case server.StatusShed, server.StatusOverLimit:
		return outShed
	}
	return outStatus
}

// requestFrameBytes and responseFrameBytes compute binary frame sizes
// from the layout documented in internal/server/binary.go (length
// prefix included).
func requestFrameBytes(req *engine.Request) int {
	n := req.List.Len()
	b := 4 + 96 + 8*n + 2 + len(tenant)
	if req.Values != nil {
		b += 8 * n
	}
	return b
}

func responseFrameBytes(r *engine.Result) int {
	return 4 + 72 + 6*8 + 4 + len(r.Algorithm) + 8 + len(r.In) + 8 + 8*len(r.Labels) + 8 + 8*len(r.Ranks)
}

// jsonReq and jsonResp mirror parlistd's HTTP/JSON bodies.
type jsonReq struct {
	Next      []int  `json:"next"`
	Head      int    `json:"head"`
	Algorithm string `json:"algorithm,omitempty"`
	Iters     int    `json:"iters,omitempty"`
	Values    []int  `json:"values,omitempty"`
}

type jsonResp struct {
	In      []bool `json:"in"`
	Labels  []int  `json:"labels"`
	Ranks   []int  `json:"ranks"`
	Size    int    `json:"size"`
	Sets    int    `json:"sets"`
	SimTime int64  `json:"sim_time"`
	SimWork int64  `json:"sim_work"`
	Batched int    `json:"batched"`
	Timing  struct {
		Enqueue int64 `json:"enqueue_unix_ns"`
		Flush   int64 `json:"flush_unix_ns"`
		Service int64 `json:"service_unix_ns"`
		Respond int64 `json:"respond_unix_ns"`
	} `json:"timing"`
}

func jsonBody(req *engine.Request) jsonReq {
	return jsonReq{Next: req.List.Next, Head: req.List.Head, Algorithm: string(req.Algorithm),
		Iters: req.Iters, Values: req.Values}
}

// decodeHTTP turns an HTTP/JSON reply into an outcome class, and fills
// the batch size and life-cycle stamps on success.
func decodeHTTP(o *outcome, code int, body []byte) {
	if code == http.StatusTooManyRequests {
		o.class = outShed
		return
	}
	if code != http.StatusOK {
		o.class = outStatus
		return
	}
	var jr jsonResp
	if err := json.Unmarshal(body, &jr); err != nil {
		o.class = outTransport
		return
	}
	o.batched = jr.Batched
	o.timing = server.Timing{Enqueue: time.Unix(0, jr.Timing.Enqueue), Flush: time.Unix(0, jr.Timing.Flush),
		Service: time.Unix(0, jr.Timing.Service), Respond: time.Unix(0, jr.Timing.Respond)}
	got := engine.Result{In: jr.In, Labels: jr.Labels, Ranks: jr.Ranks, Size: jr.Size, Sets: jr.Sets}
	got.Stats.Time, got.Stats.Work = jr.SimTime, jr.SimWork
	o.class = classify(o.in, &got)
}

func (t *target) doHTTP(o *outcome) {
	resp, err := t.hc.Post(t.base+o.in.req.Op.String(), "application/json", bytes.NewReader(o.in.body))
	if err != nil {
		o.recv, o.class = time.Now(), outTransport
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.recv = time.Now()
	if err != nil {
		o.class = outTransport
		return
	}
	decodeHTTP(o, resp.StatusCode, body)
}

// phase is the record of one load phase.
type phase struct {
	outs    []*outcome
	elapsed time.Duration
}

// collector gathers outcomes from the response goroutines.
type collector struct {
	mu    sync.Mutex
	outs  []*outcome
	wg    sync.WaitGroup
	t     *tally
	spans *spanLog // when set, each finished request's spans are recorded
}

func (c *collector) done(o *outcome) {
	c.t.add(o.class)
	if c.spans != nil {
		c.spans.addServed(o)
	}
	c.mu.Lock()
	c.outs = append(c.outs, o)
	c.mu.Unlock()
	c.wg.Done()
}

// closedLoop keeps window requests in flight for dur. A request is due
// when its window slot frees up. With sp set, spans are recorded as
// requests finish.
func closedLoop(t *target, w *workload, tl *tally, sp *spanLog, window int, dur time.Duration, first int) (phase, int) {
	c := &collector{t: tl, spans: sp}
	slots := make(chan struct{}, window)
	start := time.Now()
	end := start.Add(dur)
	i := first
	for ; time.Now().Before(end); i++ {
		slots <- struct{}{}
		o := &outcome{in: w.pick(i), http: w.isHTTP(i), due: time.Now()}
		c.wg.Add(1)
		t.send(o, func(o *outcome) { c.done(o); <-slots })
	}
	c.wg.Wait()
	return phase{outs: c.outs, elapsed: time.Since(start)}, i
}

// openLoop sends requests on a fixed schedule at rate for dur, whether
// or not earlier ones have returned. Each request is due at its slot in
// the schedule; latency and generator lag are both measured from there.
// With sp set, spans are recorded as requests finish.
func openLoop(t *target, w *workload, tl *tally, sp *spanLog, rate float64, dur time.Duration, first int) (phase, int) {
	c := &collector{t: tl, spans: sp}
	count := int(dur.Seconds() * rate)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	for k := 0; k < count; k++ {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		i := first + k
		o := &outcome{in: w.pick(i), http: w.isHTTP(i), due: due}
		c.wg.Add(1)
		t.send(o, c.done)
	}
	c.wg.Wait()
	return phase{outs: c.outs, elapsed: time.Since(start)}, first + count
}

// warmUp sends one request per (op, size class) of the workload over
// each framing it uses, so lazy set-up is paid before timing starts.
func warmUp(t *target, w *workload, tl *tally) {
	seen := map[[2]int]bool{}
	c := &collector{t: tl}
	for _, in := range w.inputs {
		k := [2]int{int(in.req.Op), engine.SizeClass(in.n)}
		if seen[k] {
			continue
		}
		seen[k] = true
		for _, viaHTTP := range []bool{false, true} {
			if viaHTTP && w.httpEvery == 0 {
				break
			}
			c.wg.Add(1)
			t.send(&outcome{in: in, http: viaHTTP, due: time.Now()}, c.done)
			c.wg.Wait()
		}
	}
}

// goodput counts OK outcomes within the workload's latency limit per
// second of the phase.
func goodput(p phase, limit time.Duration) float64 {
	n := 0
	for _, o := range p.outs {
		if o.class == outOK && o.latency() <= limit {
			n++
		}
	}
	return float64(n) / p.elapsed.Seconds()
}

// nodesPerSec counts list nodes of OK outcomes per second of the phase.
func nodesPerSec(p phase) float64 {
	n := 0
	for _, o := range p.outs {
		if o.class == outOK {
			n += o.in.n
		}
	}
	return float64(n) / p.elapsed.Seconds()
}

// latenciesMS returns every outcome's latency from its due time. A
// failed request counts as lasting failedMS, so it misses every limit.
func latenciesMS(outs []*outcome, failedMS float64) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = failedMS
		if o.class == outOK {
			xs[i] = ms(o.latency())
		}
	}
	return xs
}

// lagsMS returns how late the generator sent each request.
func lagsMS(outs []*outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = ms(o.sent.Sub(o.due))
	}
	return xs
}

// ctxBG is the context every benchmark call runs under.
var ctxBG = context.Background()
