package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// line returns the first output line starting with prefix.
func line(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("no line starting with %q; output:\n%s", prefix, out)
	return ""
}

// TestEveryExecutorSameMatching: each -exec value computes the same
// matching, and the simulated executors charge the same PRAM cost.
func TestEveryExecutorSameMatching(t *testing.T) {
	outs := map[string]string{}
	for _, exec := range []string{"sequential", "pooled", "native"} {
		var out bytes.Buffer
		if err := run([]string{"-n", "5000", "-p", "64", "-exec", exec}, &out); err != nil {
			t.Fatalf("-exec %s: %v\noutput:\n%s", exec, err, out.String())
		}
		outs[exec] = out.String()
		line(t, outs[exec], "verification: maximal matching OK")
	}
	want := line(t, outs["sequential"], "matched")
	for exec, out := range outs {
		if got := line(t, out, "matched"); got != want {
			t.Errorf("-exec %s: %q, want %q", exec, got, want)
		}
	}
	if a, b := line(t, outs["sequential"], "PRAM time"), line(t, outs["pooled"], "PRAM time"); a != b {
		t.Errorf("pooled %q, sequential %q", b, a)
	}
}

// TestUsageErrors: a removed or unknown executor is a usage error, as is
// a trace request on the native executor.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exec", "goroutines"},
		{"-exec", "warp"},
		{"-goroutines"},
		{"-exec", "native", "-trace"},
		{"-n", "0"},
	} {
		var ue usageError
		if err := run(append([]string{"-n", "64"}, args...), &bytes.Buffer{}); !errors.As(err, &ue) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
	}
}
