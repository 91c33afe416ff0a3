package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// schemeLines returns listrank's per-scheme cost lines, keyed by scheme.
func schemeLines(out string) map[string]string {
	got := map[string]string{}
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) == 5 && f[1] == "time" {
			got[f[0]] = l
		}
	}
	return got
}

// TestEveryExecutorSameRanks: under each -exec value all four schemes
// rank the list exactly (listrank checks every rank against the list
// positions), and the simulated costs agree across executors wherever
// the executor still simulates the scheme.
func TestEveryExecutorSameRanks(t *testing.T) {
	outs := map[string]map[string]string{}
	for _, exec := range []string{"sequential", "pooled", "native"} {
		var out bytes.Buffer
		if err := run([]string{"-n", "4000", "-p", "32", "-exec", exec}, &out); err != nil {
			t.Fatalf("-exec %s: %v\noutput:\n%s", exec, err, out.String())
		}
		if !strings.Contains(out.String(), "all four rankings verified against list positions") {
			t.Fatalf("-exec %s: rankings not verified; output:\n%s", exec, out.String())
		}
		outs[exec] = schemeLines(out.String())
		if len(outs[exec]) != 4 {
			t.Fatalf("-exec %s: %d scheme lines, want 4; output:\n%s", exec, len(outs[exec]), out.String())
		}
	}
	for scheme, want := range outs["sequential"] {
		if got := outs["pooled"][scheme]; got != want {
			t.Errorf("pooled %q, sequential %q", got, want)
		}
	}
	// Native runs contraction and wyllie as uncharged kernels; the other
	// two schemes fall back to the simulated machine.
	for _, scheme := range []string{"loadbalanced", "randommate"} {
		if got, want := outs["native"][scheme], outs["sequential"][scheme]; got != want {
			t.Errorf("native %q, sequential %q", got, want)
		}
	}
}

// TestUsageErrors: a removed or unknown executor is a usage error.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exec", "goroutines"},
		{"-exec", ""},
		{"-p", "0"},
	} {
		var ue usageError
		if err := run(append([]string{"-n", "64"}, args...), &bytes.Buffer{}); !errors.As(err, &ue) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
	}
}
