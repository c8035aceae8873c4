package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"dcpi/internal/daemon"
	"dcpi/internal/dcpi"
	"dcpi/internal/driver"
	"dcpi/internal/eval"
	"dcpi/internal/loader"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
	"dcpi/internal/workload"
)

// traceAll is the traced run: one traced unit of every workload, so that
// each traced run reports every per-layer metric whichever workload it
// names. Spans are recorded only here, around the benchmark's own calls
// into each layer; the timed runs carry no tracing at all.
func traceAll(b *bench, tr *Tracer) error {
	for _, f := range []func(*bench, *Tracer) error{traceProfile, traceEvalWarm, traceFleet} {
		if err := f(b, tr); err != nil {
			return err
		}
	}
	return nil
}

// perCall is a span name's self time per call in unit u.
func perCall(lt LayerTime, u time.Duration) float64 {
	if lt.Count == 0 {
		return 0
	}
	return float64(lt.Self) / float64(u) / float64(lt.Count)
}

// tracedSink forwards the machine's samples and polls to the driver and
// daemon, as dcpi.Run's collector does, with a span around each call.
type tracedSink struct {
	tr  *Tracer
	drv *driver.Driver
	dmn *daemon.Daemon
}

func (s *tracedSink) Sample(x sim.Sample) int64 {
	id := s.tr.Begin("driver.record")
	defer s.tr.End(id)
	if x.Event == sim.EvEdge {
		return s.drv.RecordEdgeAt(x.CPU, x.PID, x.PC, x.PC2, x.Clock)
	}
	return s.drv.RecordAt(x.CPU, x.PID, x.PC, x.Event, x.Clock)
}

func (s *tracedSink) Poll(cpu int, clock int64) int64 {
	id := s.tr.Begin("daemon.poll")
	defer s.tr.End(id)
	return s.dmn.Poll(cpu, clock)
}

// splitRun is one traced profiled run.
type splitRun struct {
	stats    sim.Stats
	exact    *sim.Counts
	profiles []*profiledb.Profile
}

// tracedRun rebuilds dcpi.Run's wiring for cfg from the public pieces
// (loader, driver, daemon, machine, workload set-up) so each layer can be
// spanned, with every simulated CPU on the calling goroutine. Only the
// options the profile mix sets are wired.
func tracedRun(tr *Tracer, cfg dcpi.Config, dbDir string) (*splitRun, error) {
	spec, ok := workload.Get(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	kernel, abi := workload.Kernel()
	l := loader.New(kernel)
	db, err := profiledb.Open(dbDir)
	if err != nil {
		return nil, err
	}
	drv := driver.New(driver.Config{NumCPUs: spec.NumCPUs, ZeroCost: cfg.ZeroCostCollection})
	dcfg := daemon.Config{DB: db}
	if cfg.ZeroCostCollection {
		dcfg.CostPerEntry = -1
	}
	dmn := daemon.New(dcfg, drv)
	l.Notify = dmn.HandleNotification
	l.NotifyExit = dmn.NoteExit
	m := sim.NewMachine(sim.Options{
		NumCPUs: spec.NumCPUs,
		ABI:     abi,
		Loader:  l,
		Seed:    cfg.Seed,
		Profile: sim.ProfileConfig{
			Mode:         cfg.Mode,
			Sink:         &tracedSink{tr: tr, drv: drv, dmn: dmn},
			CyclesPeriod: cfg.CyclesPeriod,
			EventPeriod:  cfg.EventPeriod,
			Seed:         uint32(cfg.Seed),
		},
		CollectExact: cfg.CollectExact,
	})

	id := tr.Begin("workload.setup")
	err = spec.Setup(&workload.Ctx{Loader: l, Machine: m, Scale: cfg.Scale})
	tr.End(id)
	if err != nil {
		return nil, err
	}
	id = tr.Begin("sim.run")
	m.Run(spec.MaxCycles)
	tr.End(id)
	id = tr.Begin("daemon.flush")
	err = dmn.Flush()
	tr.End(id)
	if err != nil {
		return nil, err
	}
	profiles, err := db.Profiles()
	if err != nil {
		return nil, err
	}
	return &splitRun{stats: m.Stats(), exact: m.Exact, profiles: profiles}, nil
}

func traceProfile(b *bench, tr *Tracer) error {
	var insts uint64
	var entries, dbBytes int64
	var loaded int
	var passTime, untracedTime time.Duration
	for _, e := range profilePass(b.seed) {
		cfg, wl := e.cfg, e.name
		ref, err := dcpi.Run(cfg)
		if err != nil {
			return fmt.Errorf("reference run %s: %w", wl, err)
		}
		b.res.Attempted++
		dir := filepath.Join(b.work, "traced")
		os.RemoveAll(dir)
		t0 := time.Now()
		pass := tr.Begin("pass.profile")
		got, err := tracedRun(tr, cfg, dir)
		if err == nil {
			_, err = analyzeHot(ref, tr)
		}
		tr.End(pass)
		passTime += time.Since(t0)
		if err != nil {
			b.opFailed(wl, err)
			continue
		}
		if got.stats != ref.MachineStats || !reflect.DeepEqual(got.exact, ref.Exact) ||
			!sameProfiles(got.profiles, ref.Profiles()) {
			b.fail("%s: traced path's stats, exact counts or profiles differ from dcpi.Run's", wl)
		}
		insts += got.stats.Instructions

		// The same unit untraced: a timed run's operation (a dcpi.Run into
		// an on-disk database, then the hot-procedure analysis) with every
		// CPU on one goroutine, as on the traced path. It runs after the
		// traced unit, so its analysis always finds the schedule memo warm.
		os.RemoveAll(dir)
		t0 = time.Now()
		_, err = profileOnce(cfg, dir)
		untracedTime += time.Since(t0)
		if err != nil {
			return fmt.Errorf("untraced run %s: %w", wl, err)
		}

		// profiledb on its own: write the run's profiles into a fresh
		// database, then read them back.
		rdir := filepath.Join(b.work, "replay")
		db, err := profiledb.Open(rdir)
		if err != nil {
			return err
		}
		for _, p := range ref.Profiles() {
			id := tr.Begin("profiledb.update")
			err := db.Update(p)
			tr.End(id)
			if err != nil {
				return err
			}
			entries += int64(len(p.Counts))
		}
		size, err := db.DiskUsage()
		if err != nil {
			return err
		}
		dbBytes += size
		id := tr.Begin("profiledb.load")
		rd, err := profiledb.OpenReader(rdir)
		var back []*profiledb.Profile
		if err == nil {
			back, err = rd.Profiles()
		}
		tr.End(id)
		if err != nil {
			return err
		}
		loaded += len(back)
		if !sameProfiles(back, ref.Profiles()) {
			b.fail("%s: profiles read back from a fresh database differ", wl)
		}
		os.RemoveAll(dir)
		os.RemoveAll(rdir)
	}

	lt := SelfTimes(tr.Spans())
	b.metric("workload.setup_ms", "ms", perCall(lt["workload.setup"], time.Millisecond))
	b.metric("sim.ns_per_inst", "ns", float64(lt["sim.run"].Self)/float64(insts))
	b.metric("driver.ns_per_sample", "ns", perCall(lt["driver.record"], time.Nanosecond))
	b.metric("daemon.us_per_poll", "us", perCall(lt["daemon.poll"], time.Microsecond))
	b.metric("daemon.flush_ms", "ms", perCall(lt["daemon.flush"], time.Millisecond))
	b.metric("analysis.proc_ms", "ms", perCall(lt["analysis.proc"], time.Millisecond))
	b.metric("profiledb.update_us", "us", perCall(lt["profiledb.update"], time.Microsecond))
	b.metric("profiledb.load_us", "us", float64(lt["profiledb.load"].Total)/float64(time.Microsecond)/float64(loaded))
	b.metric("profiledb.bytes_per_entry", "B", float64(dbBytes)/float64(entries))
	b.metric("trace.profile_pass_s", "s", passTime.Seconds())
	b.metric("trace.profile_pass_untraced_s", "s", untracedTime.Seconds())

	speedup, err := parallelSpeedup(b)
	if err != nil {
		return err
	}
	b.metric("sim.parallel_speedup", "x", speedup)
	return nil
}

// parallelSpeedup times the pass's first multiprocessor run with its CPUs
// on one goroutine and on two (three alternating runs each, medians).
func parallelSpeedup(b *bench) (float64, error) {
	var cfg dcpi.Config
	for _, e := range profilePass(b.seed) {
		if e.simCPUs > 1 {
			cfg = e.cfg
			break
		}
	}
	var seq, par []float64
	for rep := 0; rep < 3; rep++ {
		for _, n := range []int{1, 2} {
			cfg.SimCPUs = n
			t := time.Now()
			if _, err := dcpi.Run(cfg); err != nil {
				return 0, err
			}
			if n == 1 {
				seq = append(seq, time.Since(t).Seconds())
			} else {
				par = append(par, time.Since(t).Seconds())
			}
		}
	}
	return Median(seq) / Median(par), nil
}

func traceEvalWarm(b *bench, tr *Tracer) error {
	var keys []string
	cache, want, cold, err := evalColdPass(b, &keys)
	if err != nil {
		return err
	}
	// Warm passes with the experiments one at a time, so each one's span
	// is its own (the timed passes run them concurrently), each through a
	// fresh runner over the cache: an untraced warm-up, the traced pass,
	// and an untraced pass of the same shape that the traced pass's
	// overhead is measured against.
	serialPass := func(tr *Tracer) time.Duration {
		warm := newEvalRunner(cache)
		var out bytes.Buffer
		t0 := time.Now()
		for _, s := range evalSections(evalOptions(b.seed, warm)) {
			b.res.Attempted++
			id := tr.Begin("eval." + s.slug)
			err := renderSection(&out, s)
			tr.End(id)
			if err != nil {
				b.opFailed("eval-warm "+s.slug, err)
			}
		}
		d := time.Since(t0)
		checkWarm(b, out.Bytes(), want, warm.Stats(), cold)
		return d
	}
	serialPass(nil)
	b.metric("trace.eval_pass_s", "s", serialPass(tr).Seconds())
	b.metric("trace.eval_pass_untraced_s", "s", serialPass(nil).Seconds())

	// Rehydration on its own: every run the cold pass stored, fetched by
	// its content key and decoded.
	var blobBytes int
	for _, key := range keys {
		cfg, err := keyConfig(key)
		if err != nil {
			b.fail("eval-warm: %v", err)
			continue
		}
		id := tr.Begin("runcache.get")
		blob, ok := cache.Get(key)
		tr.End(id)
		if !ok {
			b.fail("eval-warm: cached run %q missing", key)
			continue
		}
		blobBytes += len(blob)
		id = tr.Begin("dcpi.decode_snapshot")
		_, err = dcpi.DecodeSnapshot(blob, cfg)
		tr.End(id)
		if err != nil {
			b.fail("eval-warm: decode %q: %v", key, err)
		}
	}
	lt := SelfTimes(tr.Spans())
	b.metric("runcache.get_us", "us", perCall(lt["runcache.get"], time.Microsecond))
	b.metric("dcpi.decode_snapshot_ms", "ms", perCall(lt["dcpi.decode_snapshot"], time.Millisecond))
	b.metric("dcpi.snapshot_kb", "KiB", float64(blobBytes)/1024/float64(len(keys)))
	for _, s := range evalSections(eval.Options{}) {
		b.metric("eval."+s.slug+"_ms", "ms", perCall(lt["eval."+s.slug], time.Millisecond))
	}
	return nil
}
