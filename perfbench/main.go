// Command perfbench is the repository benchmark. It runs one workload
// against the system through its public entry points only — the
// parlistd daemon over loopback (binary framing and HTTP/JSON),
// engine.EnginePool.Do / ShardedDo, and engine.Engine.RunInto — and
// times every layer from outside, using the response's own life-cycle
// stamps, /metrics, /statusz and the pool's statistics.
//
// Usage (normally through run.py, which builds parlistd and this
// program from the checkout first):
//
//	perfbench -workload serve_uniform -seed 1 -seconds 15 -trace 0 -parlistd PATH -out DIR
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// makes the separate traced run that prints the per-layer metrics and
// writes the recorded spans to DIR. Every OK result is checked against
// a reference computed at set-up by a pram.Sequential engine. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procs is the GOMAXPROCS of both the benchmark and parlistd: at most 2,
// so each workload runs as one process with at most two callers.
var procs = min(2, runtime.NumCPU())

// window is the closed-loop in-flight window on the binary connection.
const window = 16

func main() {
	// Keep the thread that starts parlistd alive for the whole run: the
	// child's parent-death signal is tied to it.
	runtime.LockOSThread()
	runtime.GOMAXPROCS(procs)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "serve_uniform | serve_mixed | bulk_large")
	seed := fs.Int64("seed", 1, "input-generation seed")
	seconds := fs.Int("seconds", 15, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	daemonBin := fs.String("parlistd", "", "path of the parlistd binary (served workloads)")
	outDir := fs.String("out", ".", "directory the traced run writes its spans to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	w, err := buildWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if err := selfTest(w.inputs[0]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if w.served && *daemonBin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: served workloads need -parlistd")
		os.Exit(2)
	}
	if w.served {
		// The generator's garbage is mostly decoded responses; collecting
		// it less often keeps the benchmark's own pauses out of the
		// latencies. (bulk_large's pool runs in this process, so it keeps
		// the default.)
		debug.SetGCPercent(400)
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		daemonBin: *daemonBin, outDir: *outDir, rep: newReport()}
	stealStart := readCPUStat()
	switch {
	case w.served && *trace == 0:
		err = b.servedE2E()
	case w.served:
		err = b.servedTraced()
	case *trace == 0:
		err = b.bulkE2E()
	default:
		err = b.bulkTraced()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	b.printHost(stealStart)
	b.rep.print(&b.tl)
}

// bench is one run of one workload.
type bench struct {
	w         *workload
	seed      int64
	budget    time.Duration
	daemonBin string
	outDir    string
	rep       *report
	tl        tally
	daemonGMP int
}

// slice returns share of the run's measurement budget.
func (b *bench) slice(share float64) time.Duration {
	return time.Duration(share * float64(b.budget))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	names   []string
	m       map[string]metric
	samples map[string]int
	notes   []string
	// invalid, when set, says why the run's measurements are not to be
	// trusted; the run still reports them, marked.
	invalid string
}

func newReport() *report {
	return &report{m: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric with the number of samples behind it.
func (r *report) set(name string, v float64, unit string, samples int) {
	if _, dup := r.m[name]; !dup {
		r.names = append(r.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.notes = append(r.notes, fmt.Sprintf("%s had no finite value; reported as 0", name))
		v = 0
	}
	r.m[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes one human-readable line per metric, then the result
// object as the last line of standard output.
func (r *report) print(t *tally) {
	for _, n := range r.notes {
		fmt.Printf("note %s\n", n)
	}
	if r.invalid != "" {
		fmt.Printf("invalid run: %s\n", r.invalid)
	}
	for _, n := range r.names {
		m := r.m[n]
		fmt.Printf("metric %-34s %14.4f %-8s samples=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
	fmt.Printf("fail_ratio %.6f (failed=%d attempted=%d: status=%d shed=%d transport=%d wrong=%d)\n",
		ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted,
		t.statusFail, t.shed, t.transport, t.wrong)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{t.wrong == 0, t.attempted, t.failed, r.m}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printHost records the host and the run's fixed parameters, with the
// share of this machine's CPU time its hypervisor took during the run
// (from start, a /proc/stat sample taken when measuring began).
func (b *bench) printHost(start cpuStat) {
	l2, l3 := cacheSizes()
	var daemonGMP any // null when the run started no parlistd
	if b.daemonGMP > 0 {
		daemonGMP = b.daemonGMP
	}
	host := map[string]any{
		"workload":                b.w.name,
		"seed":                    b.seed,
		"nproc":                   runtime.NumCPU(),
		"gomaxprocs_benchmark":    runtime.GOMAXPROCS(0),
		"gomaxprocs_parlistd":     daemonGMP,
		"go_version":              runtime.Version(),
		"l2_bytes":                l2,
		"l3_bytes":                l3,
		"working_set_bytes":       b.w.wsBytes,
		"working_set_note":        "computed from array sizes, not measured",
		"open_loop_rate_rps":      map[string]float64{"serve_uniform": uniformRate, "serve_mixed": mixedRate},
		"closed_loop_window":      window,
		"goodput_latency_limit_s": b.w.limit.Seconds(),
		"cpu_steal_share":         readCPUStat().stealShareSince(start),
	}
	line, _ := json.Marshal(host)
	fmt.Printf("host %s\n", line)
}

// cacheSizes reads cpu0's L2 and L3 sizes from sysfs (0 when absent).
func cacheSizes() (l2, l3 int64) {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err1 := os.ReadFile(dir + "level")
		sz, err2 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil {
			continue
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		v, _ := strconv.ParseInt(s, 10, 64)
		switch strings.TrimSpace(string(lv)) {
		case "2":
			l2 = v * mult
		case "3":
			l3 = v * mult
		}
	}
	return l2, l3
}

// cpuStat is the aggregate line of /proc/stat: total and stolen ticks.
type cpuStat struct{ total, steal int64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var s cpuStat
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user .. steal; guest time is already in user
			s.total += v
		}
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

func (s cpuStat) stealShareSince(start cpuStat) float64 {
	return ratio(float64(s.steal-start.steal), float64(s.total-start.total))
}

// selfCPU returns this process's user + system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
