package main

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"parlist/internal/engine"
	"parlist/internal/pram"
	"parlist/internal/server"
)

// runLoadgen runs loadgen with args and returns its output, failing the
// test on any error.
func runLoadgen(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("loadgen %s: %v\noutput:\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// rows returns the output lines that start with prefix.
func rows(out, prefix string) []string {
	var got []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			got = append(got, line)
		}
	}
	return got
}

// wantRows fails unless out has exactly n lines starting with prefix.
func wantRows(t *testing.T, out, prefix string, n int) []string {
	t.Helper()
	got := rows(out, prefix)
	if len(got) != n {
		t.Fatalf("%d rows with prefix %q, want %d; output:\n%s", len(got), prefix, n, out)
	}
	return got
}

// loopbackDaemon starts a parlistd-shaped server on a loopback listener
// and returns its binary-framing address; the server drains at cleanup.
func loopbackDaemon(t *testing.T) string {
	t.Helper()
	pool := engine.NewPool(engine.PoolConfig{
		Engines: 2,
		Engine:  engine.Config{Processors: 64, Exec: pram.Native},
	})
	srv, err := server.New(server.Config{Pool: pool, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		t.Fatal(err)
	}
	go srv.ServeBinary(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return ln.Addr().String()
}

func TestClosedLoopSweep(t *testing.T) {
	out := runLoadgen(t, "-n", "1024,300", "-p", "64", "-conc", "1,3", "-requests", "10")
	wantRows(t, out, "conc=", 2)
	wantRows(t, out, "pool totals:", 1)
}

func TestSmoke(t *testing.T) {
	out := runLoadgen(t, "-smoke")
	wantRows(t, out, "conc=", 2)
	wantRows(t, out, "smoke: ", 1)
}

func TestOpenLoop(t *testing.T) {
	out := runLoadgen(t, "-n", "512", "-p", "64", "-qps", "2000", "-requests", "20")
	row := wantRows(t, out, "qps-target=", 1)[0]
	if !strings.Contains(row, "offered=20 ") {
		t.Errorf("open-loop row does not offer 20 requests: %s", row)
	}
}

func TestShardedClosedLoop(t *testing.T) {
	out := runLoadgen(t, "-n", "2048", "-engines", "2", "-shards", "2", "-conc", "1,2", "-requests", "6")
	for _, row := range wantRows(t, out, "conc=", 2) {
		if !strings.Contains(row, " shards=2 ") {
			t.Errorf("sharded row without shards=2: %s", row)
		}
	}
}

func TestConnect(t *testing.T) {
	addr := loopbackDaemon(t)
	out := runLoadgen(t, "-connect", addr, "-smoke")
	wantRows(t, out, "wire qps-target=", 1)
	out = runLoadgen(t, "-connect", addr, "-n", "512", "-conc", "1,3", "-requests", "7")
	wantRows(t, out, "wire conc=", 2)
}

func TestChaosSmoke(t *testing.T) {
	out := runLoadgen(t, "-chaos", "-smoke")
	wantRows(t, out, "chaos: all invariants held", 1)
	if !strings.Contains(out, " seed=42 ") {
		t.Errorf("-chaos without -seed must default to seed 42; output:\n%s", out)
	}
	out = runLoadgen(t, "-chaos", "-smoke", "-seed", "1")
	wantRows(t, out, "chaos: all invariants held", 1)
	if !strings.Contains(out, " seed=1 ") {
		t.Errorf("-chaos -seed 1 must run seed 1; output:\n%s", out)
	}
}
