package chaos

import (
	"context"
	"testing"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
)

// TestSoak is the acceptance soak: thousands of requests at a 20%
// fault rate with deadline pressure and periodic engine kills. Soak
// itself audits the contract — exactly-once resolution, bit-identical
// successes, typed failures, zero leaks — so the test mostly asserts
// the run was a real exercise, not a vacuous pass.
func TestSoak(t *testing.T) {
	cfg := Config{Requests: 5000, Seed: 42}
	if testing.Short() {
		cfg.Requests = 600
	}
	rep, err := Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("admitted=%d succeeded=%d transient=%d deadline=%d retries=%d trips=%d kills=%d in %v",
		rep.Admitted, rep.Succeeded, rep.TransientFailures, rep.DeadlineFailures,
		rep.Retries, rep.Trips, rep.Kills, rep.Elapsed)
	if rep.Admitted == 0 || rep.Succeeded == 0 {
		t.Fatalf("vacuous soak: admitted=%d succeeded=%d", rep.Admitted, rep.Succeeded)
	}
	if rep.Retries == 0 {
		t.Error("20%% fault rate produced zero retries; injection is not reaching the engines")
	}
	if rep.Lost != 0 || rep.Mismatches != 0 || rep.Unexpected != 0 {
		t.Errorf("lost=%d mismatches=%d unexpected=%d; want 0/0/0",
			rep.Lost, rep.Mismatches, rep.Unexpected)
	}
}

// TestSoakCleanHighAvailability pins the availability target: with
// faults at 5% and retries on, the success rate over the admitted
// (non-deadline-pressured) traffic must be ≥ 99.9%.
func TestSoakCleanHighAvailability(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 400
	}
	rep, err := Soak(Config{
		Requests:     n,
		Seed:         7,
		FaultRate:    0.05,
		DeadlineRate: -1, // no deadline pressure: every failure would be a retry miss
		KillEvery:    500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rate := rep.SuccessRate(); rate < 0.999 {
		t.Errorf("success rate %.4f < 0.999 (transient=%d unexpected=%d of %d)",
			rate, rep.TransientFailures, rep.Unexpected, rep.Admitted)
	}
}

// TestSoakNoFaults proves the harness itself injects nothing when told
// not to: zero faults, zero deadline pressure, zero kills → every
// request succeeds on the first attempt.
func TestSoakNoFaults(t *testing.T) {
	rep, err := Soak(Config{
		Requests:     300,
		Workers:      4,
		Seed:         3,
		FaultRate:    -1,
		DeadlineRate: -1,
		KillEvery:    -1,
		Deadline:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded != rep.Admitted {
		t.Errorf("clean soak: %d/%d succeeded", rep.Succeeded, rep.Admitted)
	}
	if rep.Retries != 0 || rep.Kills != 0 {
		t.Errorf("clean soak scheduled retries=%d kills=%d; want 0/0", rep.Retries, rep.Kills)
	}
}

// TestAuditRecordsMismatch feeds the audit a success that differs from
// its reference: the audit must count and report the violation while
// the caller holds the soak's mutex, not block on it.
func TestAuditRecordsMismatch(t *testing.T) {
	pool := engine.NewPool(engine.PoolConfig{Engines: 1, Engine: engine.Config{Processors: 64}})
	defer pool.Close()
	req := engine.Request{Op: engine.OpRank, List: list.RandomList(300, 1)}
	f, err := pool.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{}
	wrong := map[refKey]*engine.Result{{engine.OpRank, 0}: {}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		audit(shot{req: req}, f, res, nil, wrong, rep)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("audit blocked while recording a violation")
	}
	if rep.Succeeded != 1 || rep.Mismatches != 1 || rep.Err() == nil {
		t.Errorf("succeeded=%d mismatches=%d err=%v; want 1/1/violation", rep.Succeeded, rep.Mismatches, rep.Err())
	}
}
