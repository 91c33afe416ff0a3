// Package load is the repository's one load driver. Every serving row
// — loadgen's sweeps, the E16/E17/E21/E22 experiments, benchjson's wire
// rows and the chaos soak — issues its requests through Closed or Open
// and reads its latency quantiles from the same obs.Histogram, so two
// rows that drive the same traffic report the same p50 and p99.
//
// The driver knows nothing about what a request is. A caller supplies
// a function that issues request i (and, for Open, a function that
// waits for it) and keeps whatever per-request accounting its row adds
// — result checks, audits, batch sizes — in that closure. Whether a
// shed counts against the run is also the caller's verdict: the driver
// counts sheds apart from failures and the caller inspects Result.
package load

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parlist/internal/engine"
	"parlist/internal/obs"
	"parlist/internal/server"
)

// ErrShed marks a request the system refused at admission. Returned by
// a Closed call, an Open issue or an Open wait, it counts the request
// as shed: no latency is recorded and the run goes on.
var ErrShed = errors.New("load: request shed")

// paceSlack is how far ahead of its slot Open may issue a request
// without sleeping. On a 1-CPU host timer granularity is of this order,
// so sleeping for shorter gaps would under-offer the target rate.
const paceSlack = 500 * time.Microsecond

// Result is one run's outcome.
type Result struct {
	// Served, Shed and Failed count requests that succeeded, were
	// refused with ErrShed, and failed with any other error.
	Served, Shed, Failed int
	// Err is the first failure, nil when Failed is 0.
	Err error
	// Elapsed is the run's wall time, first issue to last outcome.
	Elapsed time.Duration
	// Latency holds the round trip, in nanoseconds, of every served
	// request; shed and failed requests are not recorded.
	Latency obs.HistSnapshot
}

// Quantile returns the q-quantile of served latency with the definition
// /metrics uses (obs.HistSnapshot.Quantile): the upper bound of the
// bucket holding the quantile, at most 6.25% above the exact value.
func (r *Result) Quantile(q float64) time.Duration {
	return time.Duration(r.Latency.Quantile(q))
}

// Rate returns served requests per second of Elapsed.
func (r *Result) Rate() float64 {
	return float64(r.Served) / r.Elapsed.Seconds()
}

// FirstError keeps the first non-nil error set on it. The zero value is
// ready to use, and it is safe for concurrent use.
type FirstError struct {
	mu  sync.Mutex
	err error
}

// Set records err unless an error is already recorded or err is nil.
func (f *FirstError) Set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// Err returns the first error set, or nil.
func (f *FirstError) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// tally accumulates outcomes from any number of goroutines.
type tally struct {
	served, shed, failed atomic.Int64
	first                FirstError
	lat                  obs.Histogram
}

// record files one request issued at t0 under its outcome.
func (t *tally) record(t0 time.Time, err error) {
	switch {
	case err == nil:
		t.lat.Observe(int64(time.Since(t0)))
		t.served.Add(1)
	case errors.Is(err, ErrShed):
		t.shed.Add(1)
	default:
		t.failed.Add(1)
		t.first.Set(err)
	}
}

func (t *tally) result(start time.Time) *Result {
	r := &Result{
		Served:  int(t.served.Load()),
		Shed:    int(t.shed.Load()),
		Failed:  int(t.failed.Load()),
		Err:     t.first.Err(),
		Elapsed: time.Since(start),
	}
	t.lat.Snapshot(&r.Latency)
	return r
}

// Closed runs a closed loop: conc workers split the indices
// [0, requests) into contiguous runs of ⌈requests/conc⌉ and call
// call(i) for each index in turn, so every index is issued exactly
// once. The latency of a call is its wall time. A worker stops at its
// first failure (an error other than ErrShed); the other workers go on.
func Closed(conc, requests int, call func(i int) error) *Result {
	var t tally
	var wg sync.WaitGroup
	per := (requests + conc - 1) / conc
	start := time.Now()
	for lo := 0; lo < requests; lo += per {
		hi := min(lo+per, requests)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				t0 := time.Now()
				err := call(i)
				t.record(t0, err)
				if err != nil && !errors.Is(err, ErrShed) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return t.result(start)
}

// Open runs an open loop: one pacing goroutine calls issue(i) for i in
// [0, requests) at qps requests per second (qps 0 issues flat out), so
// requests leave in index order — the order a pipelined connection
// keeps. issue returns a wait function, which the driver calls on a
// goroutine of its own; a request's latency runs from the start of its
// issue to the return of its wait. An issue error other than ErrShed
// stops the run: nothing further is issued, and the requests already
// issued are waited for.
func Open(qps float64, requests int, issue func(i int) (wait func() error, err error)) *Result {
	var t tally
	var wg sync.WaitGroup
	var interval time.Duration
	if qps > 0 {
		interval = time.Duration(float64(time.Second) / qps)
	}
	start := time.Now()
	next := start
	for i := 0; i < requests; i++ {
		if interval > 0 {
			if d := time.Until(next); d > paceSlack {
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		t0 := time.Now()
		wait, err := issue(i)
		if err != nil {
			t.record(t0, err)
			if errors.Is(err, ErrShed) {
				continue
			}
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.record(t0, wait())
		}()
	}
	wg.Wait()
	return t.result(start)
}

// CountShed returns err marked as a shed when it is an admission
// refusal — engine.ErrQueueFull in process, a shed or over-limit status
// over the wire — so the driver counts the request as shed, not failed.
// Any other err comes back unchanged.
func CountShed(err error) error {
	var se *server.StatusError
	if errors.Is(err, engine.ErrQueueFull) ||
		errors.As(err, &se) && (se.Code == server.StatusShed || se.Code == server.StatusOverLimit) {
		return fmt.Errorf("%w: %w", ErrShed, err)
	}
	return err
}

// Response waits for the reply on ch, a channel server.Client.Submit
// returned. A non-OK status comes back as a *server.StatusError, as
// from Client.Do; a channel closed without a reply means the
// connection failed.
func Response(ch <-chan *server.Response) (*server.Response, error) {
	r, ok := <-ch
	switch {
	case !ok:
		return nil, errors.New("load: connection failed")
	case r.Status != server.StatusOK:
		se := &server.StatusError{Code: r.Status, Message: r.Message, Timing: r.Timing}
		if r.Trace.Valid() {
			se.TraceID = r.Trace.TraceID()
		}
		return r, se
	}
	return r, nil
}

// Loopback starts a serving stack on the loopback interface: a pool
// built from poolCfg, a server built from srvCfg around it (srvCfg.Pool
// is set here), and a binary-framing listener on 127.0.0.1:0. It returns
// a client dialled as tenant name, and a drain function that shuts the
// server down gracefully (30 s bound), closes the client, and returns
// the shutdown error.
func Loopback(poolCfg engine.PoolConfig, srvCfg server.Config, name string) (*server.Client, func() error, error) {
	srvCfg.Pool = engine.NewPool(poolCfg)
	srv, err := server.New(srvCfg)
	if err != nil {
		srvCfg.Pool.Close()
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, nil, err
	}
	go srv.ServeBinary(ln)
	var c *server.Client
	drain := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		// Shutdown closes only the listeners ServeBinary has registered;
		// a drain that wins the race with it must still close this one.
		ln.Close()
		if c != nil {
			c.Close()
		}
		return err
	}
	if c, err = server.Dial(ln.Addr().String(), name); err != nil {
		drain()
		return nil, nil, err
	}
	return c, drain, nil
}
