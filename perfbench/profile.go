package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"dcpi/internal/alpha"
	"dcpi/internal/analysis"
	"dcpi/internal/dcpi"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
)

// The profile workload repeats passes over a fixed mix of profiled runs.
// Four uniprocessor programs cover integer, compiler-like, floating-point
// and graphics-server code; altavista is the multiprocessor (4-CPU) run,
// simulated on two goroutines (the host has two cores). With two
// placements each (see placements), one pass takes about four seconds on a
// 2-core host.
var profileMix = []struct {
	workload string
	scale    float64
	simCPUs  int
}{
	{"compress", 0.1, 0},
	{"gcc", 0.4, 0},
	{"wave5", 0.5, 0},
	{"x11perf", 0.1, 0},
	{"altavista", 0.5, 2},
}

// hotProcs is how many of each run's hottest procedures are analyzed.
const hotProcs = 3

// minWithin15 is the least CYCLES-weighted share of a pass's hot-procedure
// instructions with high or medium confidence whose estimated execution
// count must be within 15% of the simulator's exact count. EXPERIMENTS.md
// records 88% within 15% for Figure 8 (all confidences, the whole accuracy
// suite) with nearly every larger error low-confidence; over seeds 1-16 this
// mix measured 83-96%, so 75% leaves room for unseen seeds while a broken
// estimator (near 0%) still fails.
const minWithin15 = 0.75

// denseCycles and denseEvents are the analysis sampling periods Figures
// 8-10 and dcpiwhatif use.
var (
	denseCycles = sim.PeriodSpec{Base: 768, Spread: 192}
	denseEvents = sim.PeriodSpec{Base: 384, Spread: 128}
)

// subSeed derives a per-input seed from the benchmark seed.
func subSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	h.Write(buf[:])
	h.Write([]byte(name))
	if s := h.Sum64(); s != 0 {
		return s
	}
	return 1
}

// placements is how many page placements (seeds) of each program one pass
// runs. A run's host time moves with its placement by several percent;
// a pass over more than one averages that out of the run-to-run spread.
const placements = 2

// profileEntry is one configuration of a pass.
type profileEntry struct {
	name    string // workload/placement
	cfg     dcpi.Config
	simCPUs int
}

// profilePass lists the configurations of one pass for a benchmark seed.
func profilePass(seed uint64) []profileEntry {
	var out []profileEntry
	for _, m := range profileMix {
		for k := 0; k < placements; k++ {
			name := fmt.Sprintf("%s/%d", m.workload, k)
			out = append(out, profileEntry{name, dcpi.Config{
				Workload:           m.workload,
				Scale:              m.scale,
				Mode:               sim.ModeCycles,
				Seed:               subSeed(seed, name),
				CyclesPeriod:       denseCycles,
				EventPeriod:        denseEvents,
				CollectExact:       true,
				ZeroCostCollection: true,
			}, m.simCPUs})
		}
	}
	return out
}

// profileRun is one profiled run and the analysis of its hottest
// procedures.
type profileRun struct {
	res      *dcpi.Result
	analyses []procAnalysis
}

type procAnalysis struct {
	image string
	sym   alpha.Symbol
	pa    *analysis.ProcAnalysis
}

// profileOnce is one operation of the workload: a cold profiled run into
// an on-disk database at dbDir, then ProcRows and AnalyzeProc of its
// hottest procedures (what dcpiprof and dcpicalc show a user).
func profileOnce(cfg dcpi.Config, dbDir string) (*profileRun, error) {
	cfg.DBDir = dbDir
	r, err := dcpi.Run(cfg)
	if err != nil {
		return nil, err
	}
	return analyzeHot(r, nil)
}

// analyzeHot runs ProcRows and AnalyzeProc of the run's hottest
// procedures; tr (nil for the timed runs) spans each call.
func analyzeHot(r *dcpi.Result, tr *Tracer) (*profileRun, error) {
	id := tr.Begin("analysis.proc_rows")
	rows := r.ProcRows()
	tr.End(id)
	pr := &profileRun{res: r}
	for _, row := range rows {
		if len(pr.analyses) == hotProcs || row.Counts[sim.EvCycles] == 0 {
			break
		}
		if row.Procedure == "<unknown>" {
			continue
		}
		id := tr.Begin("analysis.proc")
		pa, err := r.AnalyzeProc(row.ImagePath, row.Procedure)
		tr.End(id)
		if err != nil {
			return nil, fmt.Errorf("analyze %s:%s: %w", row.ImagePath, row.Procedure, err)
		}
		pr.analyses = append(pr.analyses, procAnalysis{row.ImagePath, symbolOf(r, row.ImagePath, row.Procedure), pa})
	}
	return pr, nil
}

func symbolOf(r *dcpi.Result, image, proc string) alpha.Symbol {
	im, _ := r.Loader.ImageByPath(image)
	for _, s := range im.Symbols {
		if s.Name == proc {
			return s
		}
	}
	return alpha.Symbol{}
}

func runProfile(b *bench) error {
	// Set-up: one in-memory (no database) run per mix entry, with every
	// CPU simulated on one goroutine. It fills the process-wide caches the
	// timed passes share (schedule memo, decoded code), and it is the
	// reference each timed run must reproduce.
	pass := profilePass(b.seed)
	refs := make([]*profileRun, len(pass))
	for i, e := range pass {
		r, err := dcpi.Run(e.cfg)
		if err != nil {
			return fmt.Errorf("reference run %s: %w", e.name, err)
		}
		if refs[i], err = analyzeHot(r, nil); err != nil {
			return err
		}
	}
	b.markSetupDone()

	b.measure(func() (time.Duration, bool) {
		runs := make([]*profileRun, len(pass))
		start := time.Now()
		for i, e := range pass {
			b.res.Attempted++
			cfg := e.cfg
			cfg.SimCPUs = e.simCPUs
			r, err := profileOnce(cfg, filepath.Join(b.work, fmt.Sprintf("db-%d", i)))
			if err != nil {
				b.opFailed(e.name, err)
				continue
			}
			runs[i] = r
		}
		wall := time.Since(start)
		ok := true
		for i, r := range runs {
			if r != nil {
				checkProfileRun(b, pass[i].name, refs[i], r)
			} else {
				ok = false
			}
			os.RemoveAll(filepath.Join(b.work, fmt.Sprintf("db-%d", i)))
		}
		// Estimated execution counts against the simulator's exact counts.
		if w := within15(runs); w < minWithin15 {
			b.fail("only %.1f%% of hot-procedure samples have frequency within 15%% of exact (need %.0f%%)",
				100*w, 100*minWithin15)
		}
		return wall, ok
	})
	return nil
}

// checkProfileRun holds one timed run to the properties the method must
// have, against the set-up's reference run of the same configuration.
func checkProfileRun(b *bench, wl string, ref, got *profileRun) {
	r := got.res
	// Conservation: every sample the simulator delivered is in the
	// profiles or counted lost by the driver or the daemon.
	var inProfiles uint64
	for _, p := range r.Profiles() {
		if !strings.Contains(p.ImagePath, "#") { // per-PID copies duplicate aggregates
			inProfiles += p.Total()
		}
	}
	delivered := r.MachineStats.Samples
	lost := r.DriverStats.Lost + r.DaemonStats.CrashDropped
	if inProfiles+lost != delivered {
		b.fail("%s: conservation: profiles %d + lost %d != delivered %d", wl, inProfiles, lost, delivered)
	}
	// The on-disk database, reopened read-only, holds exactly the
	// profiles the in-memory (no database) reference collected.
	if r.DB == nil {
		b.fail("%s: run has no database", wl)
	} else if db, err := profiledb.OpenReader(r.DB.Root()); err != nil {
		b.fail("%s: reopen database: %v", wl, err)
	} else if disk, err := db.Profiles(); err != nil {
		b.fail("%s: read database: %v", wl, err)
	} else if !sameProfiles(disk, ref.res.Profiles()) {
		b.fail("%s: database profiles differ from the in-memory reference", wl)
	}
	// The reference simulated every CPU on one goroutine; multiprocessor
	// runs here used two. Results must not depend on it.
	if r.MachineStats != ref.res.MachineStats {
		b.fail("%s: machine stats %+v != reference %+v", wl, r.MachineStats, ref.res.MachineStats)
	}
	if !reflect.DeepEqual(r.Exact, ref.res.Exact) {
		b.fail("%s: exact counts differ from the reference", wl)
	}
	if !sameProfiles(r.Profiles(), ref.res.Profiles()) {
		b.fail("%s: profiles differ from the reference", wl)
	}
	if len(got.analyses) == 0 {
		b.fail("%s: no hot procedure analyzed", wl)
	}
}

// within15 is the CYCLES-sample-weighted share of the runs' analyzed
// high- and medium-confidence instructions whose estimated execution count
// is within 15% of the exact count (the Figure 8 measure).
func within15(runs []*profileRun) float64 {
	var good, total float64
	for _, pr := range runs {
		if pr == nil {
			continue
		}
		for _, a := range pr.analyses {
			im, _ := pr.res.Loader.ImageByPath(a.image)
			exact := pr.res.Exact.Exec[im.ID]
			base := int(a.sym.Offset / alpha.InstBytes)
			for i, ia := range a.pa.Insts {
				w := float64(ia.Samples)
				if w == 0 || ia.Confidence == analysis.ConfLow {
					continue
				}
				total += w
				truth := float64(exact[base+i])
				if truth > 0 && math.Abs(ia.Freq/truth-1) <= 0.15 {
					good += w
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return good / total
}

// sameProfiles compares two profile sets regardless of order.
func sameProfiles(a, b []*profiledb.Profile) bool {
	index := func(ps []*profiledb.Profile) map[string]map[uint64]uint64 {
		m := make(map[string]map[uint64]uint64, len(ps))
		for _, p := range ps {
			m[p.ImagePath+"\x00"+p.Event.String()] = p.Counts
		}
		return m
	}
	return len(a) == len(b) && reflect.DeepEqual(index(a), index(b))
}
