package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"dcpi/internal/analysis"
	"dcpi/internal/collect"
	"dcpi/internal/expo"
	"dcpi/internal/fleet"
	"dcpi/internal/profiledb"
	"dcpi/internal/sim"
	"dcpi/internal/tsdb"
)

// The fleet tour, part of every traced run, starts a simulated fleet (the
// shape of the dcpicollect fleet demo, without fault injection), scrapes
// every sealed epoch over loopback HTTP into a raw store, and compacts a
// copy of it. Each unit then runs the query mix on the raw store and on
// the compacted one, the same query code over two layouts. Scraping and
// compaction write one fsync'd file per (machine, epoch), which on a
// shared disk swings by an order of magnitude from run to run; the fleet
// is sized so they stay near two thousand fsyncs.
const (
	fleetMachines = 8
	fleetEpochs   = 50
	fleetScale    = 0.5             // large enough that the sampled procedure set, and so the store, barely varies with the seed
	fleetWindow   = fleetEpochs / 8 // the narrow query window, in epochs
	topN          = 10
)

var fleetWorkloads = []string{"timeshare", "x11perf"}

// fleetQuery is one query of the mix; kind groups its per-layer metric.
type fleetQuery struct {
	kind string
	run  func(*tsdb.DB) any
}

// queryMix is range, top-images, top-procedures and two-window delta
// queries, each over the newest fleetWindow epochs and over the whole
// history.
func queryMix(image string) []fleetQuery {
	const e, k, half = fleetEpochs, fleetWindow, fleetEpochs / 2
	ev := sim.EvCycles
	return []fleetQuery{
		{"range", func(db *tsdb.DB) any { return tsdb.RangeQuery(db, image, ev, e-k+1, e) }},
		{"range", func(db *tsdb.DB) any { return tsdb.RangeQuery(db, image, ev, 1, e) }},
		{"top", func(db *tsdb.DB) any { return tsdb.TopImages(db, ev, e-k+1, e, topN) }},
		{"top", func(db *tsdb.DB) any { return tsdb.TopImages(db, ev, 1, e, topN) }},
		{"topprocs", func(db *tsdb.DB) any { return tsdb.TopProcs(db, image, ev, e-k+1, e, topN) }},
		{"topprocs", func(db *tsdb.DB) any { return tsdb.TopProcs(db, image, ev, 1, e, topN) }},
		{"delta", func(db *tsdb.DB) any { return tsdb.TopDeltas(db, ev, e-2*k+1, e-k, e-k+1, e, topN) }},
		{"delta", func(db *tsdb.DB) any { return tsdb.TopDeltas(db, ev, 1, half, half+1, e, topN) }},
	}
}

// deltaWindows are the two delta queries' windows, in mix order.
var deltaWindows = [][4]uint64{
	{fleetEpochs - 2*fleetWindow + 1, fleetEpochs - fleetWindow, fleetEpochs - fleetWindow + 1, fleetEpochs},
	{1, fleetEpochs / 2, fleetEpochs/2 + 1, fleetEpochs},
}

// fleetStores is the fleet tour's set-up.
type fleetStores struct {
	f           *fleet.Fleet
	mix         []fleetQuery
	raw, packed *tsdb.DB
	round       collect.RoundSummary
	ingest      time.Duration // wall time of the scrape round
	rawStats    tsdb.Stats
}

// setupFleet starts the fleet, scrapes it into a raw store, and compacts a
// copy of that store, spanning the scrape round and the compaction.
func setupFleet(b *bench, tr *Tracer) (*fleetStores, error) {
	f, err := fleet.Start(fleet.Options{
		Dir:          filepath.Join(b.work, "machines"),
		Machines:     fleetMachines,
		Workloads:    fleetWorkloads,
		Seed:         subSeed(b.seed, "fleet"),
		Scale:        fleetScale,
		AnomalyAfter: fleetEpochs / 2,
		FaultMachine: -1,
	})
	if err != nil {
		return nil, err
	}
	s := &fleetStores{f: f, mix: queryMix(f.AnomalyImage())}
	if err := s.fill(b, tr); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func (s *fleetStores) fill(b *bench, tr *Tracer) error {
	if err := s.f.AdvanceEpochs(fleetEpochs); err != nil {
		return err
	}
	rawDir := filepath.Join(b.work, "tsdb-raw")
	var err error
	if s.raw, err = tsdb.Open(rawDir, tsdb.Options{}); err != nil {
		return err
	}
	var targets []collect.Target
	for _, m := range s.f.Machines {
		targets = append(targets, collect.Target{Name: m.Name, URL: m.URL})
	}
	c := collect.New(collect.Config{
		Targets:  targets,
		Timeout:  time.Minute,
		Parallel: runtime.NumCPU(),
		DB:       s.raw,
		Procs:    true,
	})
	t := time.Now()
	id := tr.Begin("collect.round")
	s.round = c.ScrapeOnce(context.Background())
	tr.End(id)
	s.ingest = time.Since(t)
	s.rawStats = s.raw.Stats()

	packedDir := filepath.Join(b.work, "tsdb-compact")
	if err := copyFiles(rawDir, packedDir); err != nil {
		return err
	}
	if s.packed, err = tsdb.Open(packedDir, tsdb.Options{}); err != nil {
		return err
	}
	id = tr.Begin("tsdb.compact")
	_, err = s.packed.Compact(tsdb.CompactOptions{CompactAfter: 1})
	tr.End(id)
	return err
}

// copyFiles copies the regular files of one directory into a new one.
func copyFiles(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runUnit is one unit: the query mix on the raw store, then on the
// compacted store. tr (nil for an untraced unit) spans every query.
func (s *fleetStores) runUnit(tr *Tracer) (raw, packed []any) {
	run := func(db *tsdb.DB, prefix string) []any {
		out := make([]any, len(s.mix))
		for i, q := range s.mix {
			id := tr.Begin(prefix + q.kind)
			out[i] = q.run(db)
			tr.End(id)
		}
		return out
	}
	return run(s.raw, "tsdb.raw."), run(s.packed, "tsdb.compact.")
}

// groundTruth is what the per-machine profile databases hold, read
// directly with profiledb.OpenReader.
type groundTruth struct {
	totals map[tsdb.Labels]uint64       // per (machine, image, event), all epochs
	cycles map[uint64]map[string]uint64 // per epoch, per image CYCLES samples
}

func readGroundTruth(f *fleet.Fleet) (*groundTruth, error) {
	gt := &groundTruth{totals: map[tsdb.Labels]uint64{}, cycles: map[uint64]map[string]uint64{}}
	for _, m := range f.Machines {
		db, err := profiledb.OpenReader(m.DBDir)
		if err != nil {
			return nil, err
		}
		for e := 1; e <= fleetEpochs; e++ {
			ps, err := db.ProfilesAt(e)
			if err != nil {
				return nil, fmt.Errorf("%s epoch %d: %w", m.Name, e, err)
			}
			for _, p := range ps {
				gt.totals[tsdb.Labels{Machine: m.Name, Image: p.ImagePath, Event: p.Event}] += p.Total()
				if p.Event == sim.EvCycles {
					if gt.cycles[uint64(e)] == nil {
						gt.cycles[uint64(e)] = map[string]uint64{}
					}
					gt.cycles[uint64(e)][p.ImagePath] += p.Total()
				}
			}
		}
	}
	return gt, nil
}

func (gt *groundTruth) window(from, to uint64) map[string]uint64 {
	out := map[string]uint64{}
	for e := from; e <= to; e++ {
		for img, n := range gt.cycles[e] {
			out[img] += n
		}
	}
	return out
}

// checkStore holds one store's contents to the ground truth: every
// (machine, epoch) ingested exactly once, and per-(machine, image, event)
// totals equal to the profile databases'.
func checkStore(b *bench, s *fleetStores, name string, db *tsdb.DB, gt *groundTruth) {
	got := map[tsdb.Labels]uint64{}
	for _, m := range s.f.Machines {
		if n := db.MaxEpoch(m.Name); n != fleetEpochs {
			b.fail("fleet %s store: %s max epoch %d, want %d", name, m.Name, n, fleetEpochs)
		}
		seen := map[tsdb.Labels]map[uint64]bool{}
		for _, p := range db.Select(tsdb.Matcher{Machine: m.Name, AnyEvent: true, AnyProc: true}) {
			if seen[p.Labels] == nil {
				seen[p.Labels] = map[uint64]bool{}
			}
			if seen[p.Labels][p.Epoch] {
				b.fail("fleet %s store: %s epoch %d %s/%s/%s ingested twice", name, m.Name, p.Epoch, p.Image, p.Proc, p.Event)
			}
			seen[p.Labels][p.Epoch] = true
			if p.Proc == "" {
				got[tsdb.Labels{Machine: m.Name, Image: p.Image, Event: p.Event}] += p.Samples
			}
		}
	}
	if !reflect.DeepEqual(got, gt.totals) {
		b.fail("fleet %s store: per-(machine, image, event) totals differ from the profile databases", name)
	}
}

// checkFleet holds the set-up's scrape and a unit's answers to the ground
// truth.
func checkFleet(b *bench, s *fleetStores, answers []any) {
	if want := fleetMachines * fleetEpochs; s.round.EpochsIngested != want || s.round.Failed != 0 {
		b.fail("fleet: scraped %d epochs with %d failed targets, want %d and 0", s.round.EpochsIngested, s.round.Failed, want)
	}
	gt, err := readGroundTruth(s.f)
	if err != nil {
		b.fail("fleet: reading the profile databases: %v", err)
		return
	}
	checkStore(b, s, "raw", s.raw, gt)
	checkStore(b, s, "compacted", s.packed, gt)
	for i, w := range deltaWindows {
		rows, _ := answers[len(answers)-len(deltaWindows)+i].([]analysis.DeltaRow)
		want := analysis.ShareDeltas(gt.window(w[0], w[1]), gt.window(w[2], w[3]))
		if len(want) > topN {
			want = want[:topN]
		}
		if !sameDeltas(rows, want) {
			b.fail("fleet: top-delta rows for windows %v differ from ShareDeltas over the databases", w)
		}
	}
}

// sameDeltas compares delta rows, allowing for float summation order.
func sameDeltas(a, b []analysis.DeltaRow) bool {
	if len(a) != len(b) {
		return false
	}
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y)) }
	for i := range a {
		if a[i].Name != b[i].Name || !near(a[i].BeforePct, b[i].BeforePct) || !near(a[i].AfterPct, b[i].AfterPct) {
			return false
		}
	}
	return true
}

func traceFleet(b *bench, tr *Tracer) error {
	s, err := setupFleet(b, tr)
	if err != nil {
		return err
	}
	defer s.f.Close()
	b.metric("collect.ingest_points_per_s", "points/s", float64(s.round.PointsIngested)/s.ingest.Seconds())
	packedStats := s.packed.Stats()
	b.metric("tsdb.raw_bytes_per_point", "B", float64(s.rawStats.SizeBytes)/float64(s.rawStats.Points))
	b.metric("tsdb.block_bytes_per_point", "B", float64(packedStats.SizeBytes)/float64(packedStats.Points))

	// Traced units, each followed by the same unit untraced, which the
	// tracing overhead is measured against.
	const units = 20
	var tracedWall, untracedWall []float64
	var answers []any
	for i := 0; i < units; i++ {
		t := time.Now()
		id := tr.Begin("pass.fleet")
		raw, packed := s.runUnit(tr)
		tr.End(id)
		tracedWall = append(tracedWall, time.Since(t).Seconds())
		t = time.Now()
		uraw, upacked := s.runUnit(nil)
		untracedWall = append(untracedWall, time.Since(t).Seconds())
		b.res.Attempted += 4 * len(s.mix)
		if !reflect.DeepEqual(raw, packed) || !reflect.DeepEqual(uraw, upacked) {
			b.fail("fleet: queries answer differently on the raw and the compacted store")
		}
		if (answers != nil && !reflect.DeepEqual(raw, answers)) || !reflect.DeepEqual(uraw, raw) {
			b.fail("fleet: query answers changed between units")
		}
		answers = raw
	}
	checkFleet(b, s, answers)
	b.metric("trace.fleet_unit_s", "s", Median(tracedWall))
	b.metric("trace.fleet_unit_untraced_s", "s", Median(untracedWall))
	for _, st := range []struct {
		name string
		db   *tsdb.DB
	}{{"raw", s.raw}, {"compact", s.packed}} {
		var lat []float64
		for _, sp := range tr.Spans() {
			if strings.HasPrefix(sp.Name, "tsdb."+st.name+".") {
				lat = append(lat, float64(sp.Dur())/float64(time.Millisecond))
			}
		}
		b.metric("tsdb."+st.name+".query_p99_ms", "ms", Quantile(lat, 0.99))
		b.metric("tsdb."+st.name+".query_alloc_kb", "KiB", queryAllocKiB(st.db, s.mix))
	}

	// Append on its own: every epoch fetched from its machine's endpoint
	// and appended to a fresh store.
	appendDB, err := tsdb.Open(filepath.Join(b.work, "tsdb-append"), tsdb.Options{})
	if err != nil {
		return err
	}
	if err := replayAppends(b, s.f, appendDB, tr); err != nil {
		return err
	}

	lt := SelfTimes(tr.Spans())
	b.metric("collect.round_ms", "ms", perCall(lt["collect.round"], time.Millisecond))
	b.metric("tsdb.compact_ms", "ms", perCall(lt["tsdb.compact"], time.Millisecond))
	b.metric("tsdb.append_us_per_point", "us", float64(lt["tsdb.append"].Self)/float64(time.Microsecond)/float64(appendDB.Stats().Points))
	for _, store := range []string{"raw", "compact"} {
		var all LayerTime
		for _, kind := range []string{"range", "top", "topprocs", "delta"} {
			k := lt["tsdb."+store+"."+kind]
			b.metric("tsdb."+store+"."+kind+"_ms", "ms", perCall(k, time.Millisecond))
			all.Count += k.Count
			all.Self += k.Self
		}
		b.metric("tsdb."+store+".query_ms", "ms", perCall(all, time.Millisecond))
	}
	return nil
}

// replayAppends fetches every machine's epochs from its exposition
// endpoint and appends them to db, spanning the HTTP fetch (expo) and the
// append (tsdb) separately. Batches are built as the collector builds them.
func replayAppends(b *bench, f *fleet.Fleet, db *tsdb.DB, tr *Tracer) error {
	var bodyBytes, fetches int
	for _, m := range f.Machines {
		for e := 1; e <= fleetEpochs; e++ {
			id := tr.Begin("expo.profiles")
			body, err := httpGet(fmt.Sprintf("%s/profiles?epoch=%d&procs=1", m.URL, e))
			tr.End(id)
			if err != nil {
				return err
			}
			bodyBytes += len(body)
			fetches++
			var pp expo.ProfilesPayload
			if err := json.Unmarshal(body, &pp); err != nil {
				return fmt.Errorf("%s epoch %d: %w", m.Name, e, err)
			}
			batch := tsdb.Batch{Machine: m.Name, Workload: pp.Workload, Epoch: uint64(pp.Epoch)}
			if pp.Meta != nil {
				batch.Wall, batch.Period = pp.Meta.WallCycles, pp.Meta.CyclesPeriod
			}
			for _, rec := range pp.Profiles {
				ev, err := sim.ParseEvent(rec.Event)
				if err != nil {
					return err
				}
				batch.Records = append(batch.Records, tsdb.Record{Image: rec.Image, Event: ev, Samples: rec.Samples, Insts: rec.Insts})
				for _, ps := range rec.Procs {
					batch.Records = append(batch.Records, tsdb.Record{Image: rec.Image, Proc: ps.Proc, Event: ev, Samples: ps.Samples})
				}
			}
			id = tr.Begin("tsdb.append")
			err = db.Append(batch)
			tr.End(id)
			if err != nil {
				return err
			}
		}
	}
	lt := SelfTimes(tr.Spans())
	b.metric("expo.profiles_ms", "ms", perCall(lt["expo.profiles"], time.Millisecond))
	b.metric("expo.kb_per_epoch", "KiB", float64(bodyBytes)/1024/float64(fetches))
	return nil
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// queryAllocKiB is the mean heap allocation of one query of the mix,
// measured with the benchmark's goroutine the only one running queries.
func queryAllocKiB(db *tsdb.DB, mix []fleetQuery) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range mix {
		q.run(db)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(mix))
}
