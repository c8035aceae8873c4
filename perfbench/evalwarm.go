package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dcpi/internal/dcpi"
	"dcpi/internal/eval"
	"dcpi/internal/runcache"
	"dcpi/internal/runner"
)

// The eval-warm workload fills a disk run cache with one cold pass of the
// dcpieval -all experiment list at a small size, then times warm passes:
// each replays the whole list through a fresh runner over that cache, so
// it simulates nothing and every run is rehydrated from disk.
const (
	evalScale = 0.05
	evalRuns  = 2
)

// section is one experiment of the list; slug names its per-layer metric.
type section struct {
	slug, name string
	fn         func(io.Writer) error
}

// evalSections is dcpieval -all's experiment list in its output order.
func evalSections(o eval.Options) []section {
	return []section{
		{"table2", "Table 2: workloads and base runtimes", func(w io.Writer) error {
			rows, err := eval.Table2(o)
			if err == nil {
				eval.FormatTable2(w, rows)
			}
			return err
		}},
		{"table3", "Table 3: overall slowdown", func(w io.Writer) error {
			rows, err := eval.Table3(o)
			if err == nil {
				eval.FormatTable3(w, rows)
			}
			return err
		}},
		{"table4", "Table 4: time overhead components", func(w io.Writer) error {
			rows, err := eval.Table4(o)
			if err == nil {
				eval.FormatTable4(w, rows)
			}
			return err
		}},
		{"table5", "Table 5: space overhead", func(w io.Writer) error {
			rows, err := eval.Table5(o)
			if err == nil {
				eval.FormatTable5(w, rows)
			}
			return err
		}},
		{"fig1", "Figure 1: dcpiprof on x11perf", func(w io.Writer) error { return eval.Fig1(o, w) }},
		{"fig2", "Figure 2: dcpicalc on the copy loop", func(w io.Writer) error { return eval.Fig2(o, w) }},
		{"fig3_4", "Figures 3 & 4: dcpistats and the smooth_ summary", func(w io.Writer) error {
			results, err := eval.Fig3(o, w)
			if err != nil {
				return err
			}
			return eval.Fig4(o, w, results)
		}},
		{"fig7", "Figure 7: frequency estimation for the copy loop", func(w io.Writer) error { return eval.Fig7(o, w) }},
		{"fig6", "Figure 6: running-time distributions", func(w io.Writer) error {
			series, err := eval.Fig6(o)
			if err == nil {
				eval.FormatFig6(w, series)
			}
			return err
		}},
		{"fig8", "Figure 8: instruction-frequency accuracy", func(w io.Writer) error {
			res, err := eval.Fig8(o)
			if err != nil {
				return err
			}
			eval.FormatAccuracy(w, "Figure 8: distribution of errors in instruction frequencies", res)
			mr, err := eval.Fig8MultiRun(o, 4)
			if err != nil {
				return err
			}
			fmt.Fprintln(w)
			eval.FormatMultiRun(w, mr)
			return nil
		}},
		{"fig9", "Figure 9: edge-frequency accuracy", func(w io.Writer) error {
			res, err := eval.Fig9(o)
			if err != nil {
				return err
			}
			eval.FormatAccuracy(w, "Figure 9: distribution of errors in edge frequencies", res)
			ds, err := eval.Fig9DoubleSampling(o)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\nwith par.7 double sampling:       within 5%% %.1f%%, within 10%% %.1f%%\n",
				100*ds.Within5, 100*ds.Within10)
			interp, err := eval.Fig9Interpretation(o)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "with par.7 branch interpretation: within 5%% %.1f%%, within 10%% %.1f%%\n",
				100*interp.Within5, 100*interp.Within10)
			return nil
		}},
		{"fig10", "Figure 10: I-cache stalls vs IMISS events", func(w io.Writer) error {
			res, err := eval.Fig10(o)
			if err == nil {
				eval.FormatFig10(w, res)
			}
			return err
		}},
		{"ablation_ht", "Ablation: hash-table design space (§5.4)", func(w io.Writer) error {
			res, err := eval.AblationHT(o)
			if err == nil {
				eval.FormatAblation(w, res)
			}
			return err
		}},
		{"ablation_loss", "Ablation: daemon lag vs. sample loss (§4.2.3)", func(w io.Writer) error {
			res, err := eval.LossSweep(o)
			if err == nil {
				eval.FormatLossSweep(w, res)
			}
			return err
		}},
	}
}

func evalOptions(seed uint64, r *runner.Runner) eval.Options {
	return eval.Options{Runs: evalRuns, Scale: evalScale, SeedBase: subSeed(seed, "eval"), Runner: r}
}

// renderSection renders one section the way dcpieval prints it.
func renderSection(w *bytes.Buffer, s section) error {
	fmt.Fprintf(w, "==== %s ====\n\n", s.name)
	if err := s.fn(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// renderAll runs every section concurrently over one runner, as
// dcpieval -all does, and returns the output in list order plus the
// sections that failed.
func renderAll(secs []section) ([]byte, []error) {
	bufs := make([]bytes.Buffer, len(secs))
	errs := make([]error, len(secs))
	done := make(chan int)
	for i := range secs {
		go func(i int) {
			errs[i] = renderSection(&bufs[i], secs[i])
			done <- i
		}(i)
	}
	for range secs {
		<-done
	}
	var out bytes.Buffer
	var failed []error
	for i := range secs {
		out.Write(bufs[i].Bytes())
		if errs[i] != nil {
			failed = append(failed, fmt.Errorf("%s: %w", secs[i].slug, errs[i]))
		}
	}
	return out.Bytes(), failed
}

// newEvalRunner is a fresh runner with one worker per host CPU over the
// disk cache.
func newEvalRunner(cache *runcache.Cache) *runner.Runner {
	r := runner.New(0)
	r.Disk = cache
	return r
}

// evalColdPass is the workload's set-up: open an empty disk cache and fill
// it with one cold pass. keys, when non-nil, receives the content key of
// every simulated run.
func evalColdPass(b *bench, keys *[]string) (*runcache.Cache, []byte, runner.CacheStats, error) {
	cache, err := runcache.Open(filepath.Join(b.work, "runcache"), runcache.Options{Stamp: dcpi.CacheStamp(), MaxBytes: -1})
	if err != nil {
		return nil, nil, runner.CacheStats{}, err
	}
	cold := newEvalRunner(cache)
	if keys != nil {
		cold.ShardSink = func(key string, _ []byte) { *keys = append(*keys, key) }
	}
	out, failed := renderAll(evalSections(evalOptions(b.seed, cold)))
	if len(failed) > 0 {
		return nil, nil, runner.CacheStats{}, fmt.Errorf("cold pass: %v", failed)
	}
	return cache, out, cold.Stats(), nil
}

// checkWarm holds a warm pass to the cold pass it replays.
func checkWarm(b *bench, out, want []byte, st, cold runner.CacheStats) {
	if !bytes.Equal(out, want) {
		b.fail("eval-warm: warm output differs from the cold pass")
	}
	if st.Simulated != 0 {
		b.fail("eval-warm: warm pass simulated %d runs", st.Simulated)
	}
	if st.DiskHits != cold.Simulated {
		b.fail("eval-warm: %d disk hits, cold pass simulated %d", st.DiskHits, cold.Simulated)
	}
}

func runEvalWarm(b *bench) error {
	cache, want, cold, err := evalColdPass(b, nil)
	if err != nil {
		return err
	}
	// One untimed warm pass lets the page cache and the heap settle; the
	// first warm pass of a process runs up to half again slower.
	warm := newEvalRunner(cache)
	out, failed := renderAll(evalSections(evalOptions(b.seed, warm)))
	if len(failed) > 0 {
		return fmt.Errorf("warm-up pass: %v", failed)
	}
	checkWarm(b, out, want, warm.Stats(), cold)
	b.markSetupDone()

	b.measure(func() (time.Duration, bool) {
		warm := newEvalRunner(cache)
		secs := evalSections(evalOptions(b.seed, warm))
		start := time.Now()
		out, failed := renderAll(secs)
		wall := time.Since(start)
		b.res.Attempted += len(secs)
		for _, err := range failed {
			b.opFailed("eval-warm", err)
		}
		if len(failed) > 0 {
			return wall, false
		}
		checkWarm(b, out, want, warm.Stats(), cold)
		return wall, true
	})
	return nil
}

// keyConfig reads from a runner.Key the fields dcpi.DecodeSnapshot
// rebuilds a result from: the workload, its scale and the CPU count. Every
// run of the experiment list is on the default machine with no rewrites,
// whose keys carry no hw or rw field; DecodeSnapshot checks the snapshot's
// machine against the config's.
func keyConfig(key string) (dcpi.Config, error) {
	var cfg dcpi.Config
	for _, f := range strings.Split(key, "|") {
		name, v, _ := strings.Cut(f, "=")
		var err error
		switch name {
		case "w":
			cfg.Workload = v
		case "scale":
			cfg.Scale, err = strconv.ParseFloat(v, 64)
		case "ncpu":
			cfg.NumCPUs, err = strconv.Atoi(v)
		}
		if err != nil {
			return cfg, fmt.Errorf("key %q: field %s: %w", key, name, err)
		}
	}
	return cfg, nil
}
