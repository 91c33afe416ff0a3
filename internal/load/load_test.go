package load

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/server"
)

func TestClosedIssuesEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ conc, requests int }{{3, 10}, {4, 6}, {16, 24}, {5, 3}, {1, 7}} {
		t.Run(fmt.Sprintf("conc=%d/requests=%d", tc.conc, tc.requests), func(t *testing.T) {
			hits := make([]atomic.Int32, tc.requests)
			r := Closed(tc.conc, tc.requests, func(i int) error {
				hits[i].Add(1)
				return nil
			})
			for i := range hits {
				if n := hits[i].Load(); n != 1 {
					t.Errorf("index %d issued %d times, want 1", i, n)
				}
			}
			if r.Served != tc.requests || r.Failed != 0 || r.Err != nil {
				t.Errorf("served=%d failed=%d err=%v, want %d/0/nil", r.Served, r.Failed, r.Err, tc.requests)
			}
			if r.Latency.Count != uint64(r.Served) {
				t.Errorf("histogram holds %d latencies, want %d", r.Latency.Count, r.Served)
			}
		})
	}
}

func TestClosedStopsWorkerAtFirstError(t *testing.T) {
	// Two workers of 5 indices each: worker 0 fails at index 2 and must
	// issue nothing after it; worker 1 runs to completion.
	boom := errors.New("boom")
	var mu sync.Mutex
	var issued []int
	r := Closed(2, 10, func(i int) error {
		mu.Lock()
		issued = append(issued, i)
		mu.Unlock()
		if i == 2 {
			return fmt.Errorf("request %d: %w", i, boom)
		}
		return nil
	})
	if !errors.Is(r.Err, boom) {
		t.Fatalf("Err = %v, want the first failure", r.Err)
	}
	if r.Served != 7 || r.Failed != 1 {
		t.Errorf("served=%d failed=%d, want 7/1", r.Served, r.Failed)
	}
	for _, i := range issued {
		if i == 3 || i == 4 {
			t.Errorf("index %d issued after its worker failed", i)
		}
	}
}

func TestClosedShedKeepsWorkerGoing(t *testing.T) {
	r := Closed(2, 8, func(i int) error {
		if i%2 == 0 {
			return ErrShed
		}
		return nil
	})
	if r.Served != 4 || r.Shed != 4 || r.Failed != 0 || r.Err != nil {
		t.Errorf("served=%d shed=%d failed=%d err=%v, want 4/4/0/nil", r.Served, r.Shed, r.Failed, r.Err)
	}
	if r.Latency.Count != 4 {
		t.Errorf("histogram holds %d latencies, want only the 4 served", r.Latency.Count)
	}
}

func TestFirstErrorKeepsFirst(t *testing.T) {
	var f FirstError
	f.Set(nil)
	if f.Err() != nil {
		t.Fatal("nil Set recorded an error")
	}
	var wg sync.WaitGroup
	first := errors.New("first")
	f.Set(first)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Set(fmt.Errorf("later %d", i))
		}()
	}
	wg.Wait()
	if f.Err() != first {
		t.Errorf("Err = %v, want %v", f.Err(), first)
	}
}

func TestOpenPacesAtTarget(t *testing.T) {
	// The pacing rule may issue a request up to paceSlack before its
	// slot; it never issues the whole run faster than that.
	const qps, requests = 400, 11
	r := Open(qps, requests, func(int) (func() error, error) {
		return func() error { return nil }, nil
	})
	floor := time.Duration(requests-1)*time.Second/qps - paceSlack
	if r.Elapsed < floor {
		t.Errorf("%d requests at %d qps took %v, want at least %v", requests, qps, r.Elapsed, floor)
	}
	if r.Served != requests {
		t.Errorf("served %d of %d", r.Served, requests)
	}
}

func TestOpenCountsOutcomes(t *testing.T) {
	bad := errors.New("bad response")
	r := Open(0, 30, func(i int) (func() error, error) {
		switch {
		case i%10 == 9:
			return nil, ErrShed // refused at admission
		case i%10 == 8:
			return func() error { return ErrShed }, nil // shed by the server
		case i%10 == 7:
			return func() error { return fmt.Errorf("request %d: %w", i, bad) }, nil
		}
		return func() error { return nil }, nil
	})
	if r.Served != 21 || r.Shed != 6 || r.Failed != 3 {
		t.Errorf("served=%d shed=%d failed=%d, want 21/6/3", r.Served, r.Shed, r.Failed)
	}
	if !errors.Is(r.Err, bad) {
		t.Errorf("Err = %v, want a failed wait", r.Err)
	}
	if r.Latency.Count != uint64(r.Served) {
		t.Errorf("histogram holds %d latencies, want %d", r.Latency.Count, r.Served)
	}
}

func TestOpenIssueErrorStopsRun(t *testing.T) {
	down := errors.New("connection down")
	var issued atomic.Int32
	r := Open(0, 10, func(i int) (func() error, error) {
		issued.Add(1)
		if i == 4 {
			return nil, down
		}
		return func() error { return nil }, nil
	})
	if issued.Load() != 5 || r.Served != 4 || r.Failed != 1 || !errors.Is(r.Err, down) {
		t.Errorf("issued=%d served=%d failed=%d err=%v, want 5/4/1/%v",
			issued.Load(), r.Served, r.Failed, r.Err, down)
	}
}

func TestCountShed(t *testing.T) {
	for _, tc := range []struct {
		err  error
		shed bool
	}{
		{fmt.Errorf("submit: %w", engine.ErrQueueFull), true},
		{&server.StatusError{Code: server.StatusShed, Message: "batcher inbox full"}, true},
		{&server.StatusError{Code: server.StatusOverLimit}, true},
		{&server.StatusError{Code: server.StatusInternal}, false},
		{engine.ErrPoolClosed, false},
		{nil, false},
	} {
		got := CountShed(tc.err)
		if errors.Is(got, ErrShed) != tc.shed {
			t.Errorf("CountShed(%v) = %v, shed = %v, want %v", tc.err, got, !tc.shed, tc.shed)
		}
		if tc.err != nil && !errors.Is(got, tc.err) {
			t.Errorf("CountShed(%v) = %v lost the cause", tc.err, got)
		}
	}
}

func TestLoopbackDrainsWithoutLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c, drain, err := Loopback(
		engine.PoolConfig{Engines: 2, Engine: engine.Config{Processors: 64, Exec: pram.Native}},
		server.Config{BatchSize: 4},
		"load-test")
	if err != nil {
		t.Fatal(err)
	}
	l := list.RandomList(300, 1)
	r := Open(0, 20, func(int) (func() error, error) {
		ch, err := c.Submit(engine.Request{Op: engine.OpRank, List: l})
		if err != nil {
			return nil, err
		}
		return func() error {
			resp, err := Response(ch)
			if err == nil && len(resp.Result.Ranks) != l.Len() {
				err = fmt.Errorf("%d ranks for n=%d", len(resp.Result.Ranks), l.Len())
			}
			return err
		}, nil
	})
	if err := drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if r.Err != nil || r.Served != 20 {
		t.Fatalf("served=%d shed=%d err=%v, want 20 served", r.Served, r.Shed, r.Err)
	}
	// The client's read loop exits once the closed connection's read
	// returns; give the scheduler a bounded moment to reap it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baseline {
		t.Errorf("%d goroutine(s) leaked past drain (%d → %d)", now-baseline, baseline, now)
	}
}
