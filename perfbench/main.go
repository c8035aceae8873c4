// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time in a single process, checks the program's
// outputs, and prints one JSON line with the operations attempted and
// failed and every metric by name and unit:
//
//	perfbench -workload profile|eval-warm -seed N -seconds S -trace 0|1
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 a separate traced run records spans around every call
// the benchmark makes into a layer, over one traced unit of each workload
// and of the fleet tour (fleet.go), and reports per-layer metrics (self
// time is a span minus its children); see README.md. perfbench/run.py builds
// this binary from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// procStart is when this process started: run.py passes the time it
// launched the binary (PERFBENCH_T0_NS, Unix nanoseconds) so that set-up
// time includes process start and package initialization; without it the
// earliest point main can see stands in.
var procStart = func() time.Time {
	if ns, err := strconv.ParseInt(os.Getenv("PERFBENCH_T0_NS"), 10, 64); err == nil {
		return time.Unix(0, ns)
	}
	return time.Now()
}()

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// bench is the state shared by one run of any workload.
type bench struct {
	seed    uint64
	seconds float64
	work    string // scratch directory for every store the run writes
	res     Result
	setup   time.Duration // process start to the first timed operation
}

// markSetupDone records set-up time; call it just before the first timed
// operation.
func (b *bench) markSetupDone() { b.setup = time.Since(procStart) }

// fail records an output check that did not hold.
func (b *bench) fail(format string, args ...any) {
	b.res.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
}

// opFailed records an operation that returned an error.
func (b *bench) opFailed(what string, err error) {
	b.res.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
}

func (b *bench) metric(name, unit string, v float64) {
	b.res.Metrics[name] = Metric{Value: v, Unit: unit}
}

// peakRSSMiB is this process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// calBuf is the calibration loop's working set (4 MiB), allocated once.
var calBuf = make([]uint64, 1<<19)

// calSink keeps the calibration loop's result live.
var calSink uint64

// calibrate times a fixed loop of pseudo-random reads, writes and
// data-dependent branches over calBuf: CPU- and cache-bound work that
// involves no code of the program. It returns the median of three runs.
// A forced collection first keeps the program's garbage from being
// collected during the loop; the loop itself allocates nothing.
func calibrate() time.Duration {
	runtime.GC()
	var d [3]time.Duration
	for r := range d {
		t := time.Now()
		x, sum := uint64(88172645463325252), uint64(0)
		for i := 0; i < 1<<22; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := x & uint64(len(calBuf)-1)
			calBuf[j] += x
			if calBuf[(j*7)&uint64(len(calBuf)-1)]&1 == 0 {
				sum += j
			} else {
				sum ^= x
			}
		}
		calSink += sum
		d[r] = time.Since(t)
	}
	sort.Slice(d[:], func(i, j int) bool { return d[i] < d[j] })
	return d[1]
}

// measure runs pass repeatedly for the run's length and reports the
// end-to-end metrics. pass does one timed unit of the workload, checks
// its outputs, and returns the unit's wall time (ok false if it failed).
//
// The host is shared: its speed drifts by a third over minutes (steal
// time, neighbours' cache and memory traffic), in CPU time as much as in
// wall time. Each unit's wall time is therefore divided by the mean of
// the calibration loop timed just before and just after it; pass_rel is
// the median of those ratios.
func (b *bench) measure(pass func() (time.Duration, bool)) {
	var walls, rels []float64
	before := calibrate()
	for deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second))); time.Now().Before(deadline); {
		wall, ok := pass()
		after := calibrate()
		if ok {
			walls = append(walls, wall.Seconds())
			rels = append(rels, 2*float64(wall)/float64(before+after))
		}
		before = after
	}
	b.metric("setup_s", "s", b.setup.Seconds())
	b.metric("pass_rel", "x", Median(rels))
	fmt.Fprintf(os.Stderr, "perfbench: unit wall %.3f s, relative %.2f, peak RSS %.0f MiB\n", walls, rels, peakRSSMiB())
}

var workloads = map[string]func(*bench) error{
	"profile":   runProfile,
	"eval-warm": runEvalWarm,
}

func main() {
	var (
		wl       = flag.String("workload", "", "workload: profile or eval-warm")
		seed     = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "how long to measure")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer tour instead of the timed run")
		workDir  = flag.String("work-dir", ".bench_build/work", "scratch directory for the stores the run writes")
		traceOut = flag.String("trace-out", "", "Chrome trace file for -trace 1 (default .bench_build/trace-<workload>-<seed>.json)")
	)
	flag.Parse()
	run, ok := workloads[*wl]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	b := &bench{
		seed:    *seed,
		seconds: *seconds,
		res:     Result{Correct: true, Metrics: map[string]Metric{}},
	}
	var err error
	b.work, err = os.MkdirTemp(mkdir(*workDir), *wl+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *trace == 0 {
		err = run(b)
	} else {
		tr := NewTracer()
		err = traceAll(b, tr)
		if err == nil {
			out := *traceOut
			if out == "" {
				out = filepath.Join(mkdir(filepath.Dir(*workDir)), fmt.Sprintf("trace-%s-%d.json", *wl, *seed))
			}
			err = WriteChrome(out, tr.Spans())
			fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(tr.Spans()), out)
		}
	}
	if rmErr := os.RemoveAll(b.work); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	if b.res.Attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operations\n", *wl)
		os.Exit(1)
	}
	line, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !b.res.Correct {
		os.Exit(1)
	}
}

// mkdir creates dir (and parents) and returns it; failures surface at the
// first use of the directory.
func mkdir(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}
