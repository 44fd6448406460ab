package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/hw/accel"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/roi"
	"repro/internal/svm"
	"repro/internal/track"
)

// setupReps is how many times a run builds the system; setup_s and
// peak_rss_mb are medians, so one build the host happened to slow down
// does not decide them.
const setupReps = 7

// setupStats is what timeSetup measured: medians over the builds.
type setupStats struct {
	wallS, cpuS, peakMB float64
}

// timeSetup calls build setupReps times, tears down every build but the
// last, and returns the medians of the builds' wall time, scaled process
// CPU time and peak resident set. Every build starts as cold as the first
// one in a fresh process would: the previous build is torn down (teardown
// drops its references), and startRSS's collections empty the sync.Pools
// the detector fills and return the heap to the OS, so the build faults
// its buffers in again. Only the model file stays in the OS page cache.
// The same collection follows the last build, so every run's measured
// loop starts from the same collected heap.
func timeSetup(build func() (teardown func(), err error)) (setupStats, error) {
	var walls, cpus, peaks []float64
	for i := 0; i < setupReps; i++ {
		rss := startRSS()
		calib := calibrate()
		t0, c0 := time.Now(), processCPU()
		teardown, err := build()
		if err != nil {
			rss.stop()
			return setupStats{}, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, scaled(ms(processCPU()-c0), calib)/1000)
		peaks = append(peaks, rss.stop())
		if i < setupReps-1 {
			teardown()
		}
	}
	runtime.GC()
	debug.FreeOSMemory()
	return setupStats{median(walls), median(cpus), median(peaks)}, nil
}

// loopResult is what a closed loop measured.
type loopResult struct {
	ops, failed        int
	elapsed            time.Duration
	plain, traced      []float64   // op latencies in ms, split by tracing
	plainCPU, rawCPU   [][]float64 // scaled and unscaled process CPU ms of the untraced ops, by input
	calib              []float64   // calibration loop CPU ms before each untraced op
	opAlloc, opMallocs []float64   // heap bytes and objects allocated per op
	allocBytes         uint64
	firstErr           error
}

// closedLoop runs op for i = 0, 1, ... until budget is spent and every
// input has run (in a traced run, traced once too), one caller, each op
// starting when the previous one returned. Input i is i mod n. In a traced
// run every other pass over the inputs is traced, so the traced and
// untraced op times of one run can be compared (bench.trace_overhead_pct);
// untraced runs trace nothing. Each op's process CPU time is scaled by a
// calibration loop run just before it.
func closedLoop(budget time.Duration, n int, tr *tracer, op func(i int, traced bool) (bool, error)) loopResult {
	var r loopResult
	// ReadMemStats is exact (it flushes the per-P allocation caches) and
	// stops the world only briefly; it runs outside the timed op.
	var m0, m1, before, after runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.plainCPU, r.rawCPU = make([][]float64, n), make([][]float64, n)
	start := time.Now()
	minOps := n
	if tr != nil {
		minOps = 2 * n // one untraced and one traced pass
	}
	for i := 0; i < minOps || time.Since(start) < budget; i++ {
		traced := tr != nil && (i/n)%2 == 1
		calib := calibrate()
		runtime.ReadMemStats(&before)
		t0, c0 := time.Now(), processCPU()
		ok, err := op(i, traced)
		d, raw := ms(time.Since(t0)), ms(processCPU()-c0)
		runtime.ReadMemStats(&after)
		r.opAlloc = append(r.opAlloc, float64(after.TotalAlloc-before.TotalAlloc))
		r.opMallocs = append(r.opMallocs, float64(after.Mallocs-before.Mallocs))
		if traced {
			r.traced = append(r.traced, d)
		} else {
			r.plain = append(r.plain, d)
			r.plainCPU[i%n] = append(r.plainCPU[i%n], scaled(raw, calib))
			r.rawCPU[i%n] = append(r.rawCPU[i%n], raw)
			r.calib = append(r.calib, calib)
		}
		r.ops++
		if err != nil && r.firstErr == nil {
			r.firstErr = err
		}
		if !ok || err != nil {
			r.failed++
		}
	}
	r.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return r
}

// endToEndMetrics fills the end-to-end metrics of a core workload. The
// gated frame times are scaled process CPU times (calib.go), which leave
// out the host's steal and speed drift; the wall-clock figures are
// reported beside them.
// allocs_per_op is the median over frames of the heap objects allocated:
// the bytes per frame are dominated by the frames that refill the level
// pools a GC emptied, and how many of those fall in a run follows the GC's
// timing, so the byte figures are only reported.
func (r loopResult) endToEndMetrics(oc *outcome, setup setupStats) {
	oc.attempted, oc.failed = r.ops, r.failed
	setup.metrics(oc)
	// Each input's median over the passes, so a GC cycle or a host stall
	// in one pass does not move it, and every figure weighs each input
	// once whatever the number of passes (the last one may be partial).
	cpu, raw := medians(r.plainCPU), medians(r.rawCPU)
	oc.metrics["frames_per_cpu_s"] = perSecond(cpu)
	oc.metrics["frame_cpu_ms_p50"] = median(cpu)
	oc.metrics["frame_cpu_ms_p90"] = quantile(cpu, 0.9)
	oc.extra["frame_cpu_ms_p50_unscaled"], oc.extra["calib_ms_p50"] = median(raw), median(r.calib)
	oc.metrics["allocs_per_op"] = median(r.opMallocs)
	fps, p50, p90 := float64(r.ops)/r.elapsed.Seconds(), median(r.plain), quantile(r.plain, 0.9)
	oc.extra["frames_per_s"], oc.extra["frame_ms_p50"], oc.extra["frame_ms_p90"] = fps, p50, p90
	meanKB, medianKB := float64(r.allocBytes)/1024/float64(r.ops), median(r.opAlloc)/1024
	oc.extra["alloc_kb_per_op_mean"], oc.extra["alloc_kb_per_op_median"] = meanKB, medianKB
	oc.notes = append(oc.notes,
		fmt.Sprintf("unscaled frame_cpu_ms_p50 %.4g ms; calibration loop p50 %.4g CPU ms", median(raw), median(r.calib)),
		fmt.Sprintf("wall clock: frames_per_s %.4g, frame_ms_p50 %.4g ms, frame_ms_p90 %.4g ms (not gated)", fps, p50, p90),
		fmt.Sprintf("frames %d in %.2fs (%d inputs); allocation per frame: median %.1f kB, mean %.1f kB",
			r.ops, r.elapsed.Seconds(), len(cpu), medianKB, meanKB))
	if r.firstErr != nil {
		oc.notes = append(oc.notes, "first error: "+r.firstErr.Error())
	}
}

// metrics fills the set-up metrics; the wall-clock set-up time is reported.
func (s setupStats) metrics(oc *outcome) {
	oc.metrics["setup_s"] = s.cpuS
	oc.metrics["peak_rss_mb"] = s.peakMB
	oc.extra["setup_wall_s"] = s.wallS
	oc.notes = append(oc.notes, fmt.Sprintf("set-up: %.4g scaled CPU s, %.4g s wall clock (medians of %d builds)", s.cpuS, s.wallS, setupReps))
}

// traceMetrics fills the metrics every traced core workload shares.
func (r loopResult) traceMetrics(oc *outcome, tr *tracer) {
	oc.attempted, oc.failed = r.ops, r.failed
	oc.metrics["bench.traced_op_ms_p50"] = median(r.traced)
	if p := median(r.plain); p > 0 && len(r.traced) > 0 {
		oc.metrics["bench.trace_overhead_pct"] = (median(r.traced)/p - 1) * 100
	}
	oc.metrics["core.allocs_per_frame"] = median(r.opMallocs)
	for name, metric := range map[string]string{
		"hog.cells": "hog.cells_ms", "hog.norm": "hog.norm_ms", "featpyr.build": "featpyr.build_ms",
		"core.scan": "core.scan_ms", "core.nms": "core.nms_ms",
	} {
		oc.metrics[metric] = medianOf(tr.perOp(name, true))
	}
	// Share of the traced frame that the layer spans account for: the
	// rest is detector glue and benchmark overhead.
	var layers []map[int]float64
	for _, n := range []string{"hog.cells", "hog.norm", "featpyr.build", "core.scan", "core.nms"} {
		layers = append(layers, tr.perOp(n, true))
	}
	var shares []float64
	for op, total := range tr.perOp("frame", false) {
		var sum float64
		for _, l := range layers {
			sum += l[op]
		}
		shares = append(shares, 100*sum/total)
	}
	oc.metrics["bench.stage_share_pct"] = median(shares)
	oc.notes = append(oc.notes, fmt.Sprintf("traced frames %d, untraced frames %d", len(r.traced), len(r.plain)))
	if r.firstErr != nil {
		oc.notes = append(oc.notes, "first error: "+r.firstErr.Error())
	}
}

// counters is a snapshot of the program's recorder counters (or the
// difference of two), so per-frame counts can be taken over the traced ops
// alone.
type counters struct {
	cells                     uint64
	windows, accepted, blocks uint64
	arenaGets, arenaMisses    uint64
}

func snapshot(m *obs.Metrics, arenas ...*core.Arena) counters {
	s := counters{
		cells:    m.Stage[obs.StageHOGCells].Snapshot().Count,
		windows:  m.CascadeWindows.Load(),
		accepted: m.CascadeAccepted.Load(),
		blocks:   m.CascadeBlocks.Load(),
	}
	for _, a := range arenas {
		g, mi := a.Counters()
		s.arenaGets += g
		s.arenaMisses += mi
	}
	return s
}

func (s counters) sub(o counters) counters {
	return counters{
		s.cells - o.cells,
		s.windows - o.windows, s.accepted - o.accepted, s.blocks - o.blocks,
		s.arenaGets - o.arenaGets, s.arenaMisses - o.arenaMisses,
	}
}

func (s counters) add(o counters) counters {
	return counters{
		s.cells + o.cells,
		s.windows + o.windows, s.accepted + o.accepted, s.blocks + o.blocks,
		s.arenaGets + o.arenaGets, s.arenaMisses + o.arenaMisses,
	}
}

// counterMetrics fills the metrics read from the program's recorders:
// d covers the traced ops, arena counters cover the whole loop. The
// cascade metrics are reported when the workload runs a cascade.
func (d counters) counterMetrics(oc *outcome, tracedOps int, arena counters, cascade bool) {
	oc.metrics["hog.cells_calls_per_frame"] = ratio(float64(d.cells), float64(tracedOps))
	oc.metrics["core.arena_miss_ratio"] = ratio(float64(arena.arenaMisses), float64(arena.arenaGets))
	if cascade {
		oc.metrics["core.cascade_blocks_per_window"] = ratio(float64(d.blocks), float64(d.windows))
		oc.metrics["core.cascade_reject_ratio"] = 1 - ratio(float64(d.accepted), float64(d.windows))
	}
}

// densePyramid returns the pyramid levels a detector builds for a frame of
// this size and the windows a dense scan of them visits, from the score
// maps of an unrestricted detector (one map per level).
func densePyramid(model *svm.Model, cfg core.Config, frame *imgproc.Gray) (levels, windows int, err error) {
	cfg.Regions, cfg.Metrics, cfg.Arena = nil, nil, nil
	d, err := core.NewDetector(model, cfg)
	if err != nil {
		return 0, 0, err
	}
	maps, err := d.ScoreMaps(frame)
	if err != nil {
		return 0, 0, err
	}
	for _, m := range maps {
		if m != nil { // a level too small for one window
			windows += m.W * m.H
		}
	}
	return len(maps), windows, nil
}

// singleScene is the state of one closed-loop pedestrian detector, with the
// roi scheduler and tracker when the workload restricts scans.
type singleScene struct {
	plain, traced *core.Detector // same model, arena and regions; traced records stages
	rec           *obs.DetectRecorder
	arena         *core.Arena
	regions       *core.RegionSet
	sched         *roi.Scheduler
	tracker       *track.Tracker
	boxes         []geom.Rect
}

func newSingleScene(model *svm.Model, cfg core.Config, withROI bool, m *obs.Metrics) (*singleScene, error) {
	s := &singleScene{arena: core.NewArena()}
	cfg.Arena = s.arena
	if withROI {
		s.regions = core.NewRegionSet()
		cfg.Regions = s.regions
		var err error
		if s.sched, err = roi.New(roi.DefaultConfig()); err != nil {
			return nil, err
		}
	}
	var err error
	if s.plain, err = core.NewDetector(model, cfg); err != nil {
		return nil, err
	}
	s.rec = obs.NewDetectRecorder(m)
	cfg.Metrics = s.rec
	if s.traced, err = core.NewDetector(model, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// frameStep is what one frame of a singleScene did, for the roi/track
// layer metrics.
type frameStep struct {
	full    bool
	regions int
	live    int
}

// step runs input frame f: plan the scan (when scheduling), detect, and
// feed the tracker. The first frame of each clip restarts the scheduler
// and tracker, so every pass over the inputs is the same computation.
// detect swaps in DetectRawCtx for the NMS keep-ratio replay.
func (s *singleScene) step(ctx context.Context, frame *imgproc.Gray, f int, d *core.Detector, tr *tracer, op, parent int,
	detect func(context.Context, *imgproc.Gray) ([]eval.Detection, error)) ([]eval.Detection, frameStep, error) {
	var st frameStep
	if s.sched != nil {
		if f%roiClipFrames == 0 {
			s.sched.Reset()
			s.tracker = track.New(track.DefaultConfig())
		}
		t0 := time.Now()
		s.boxes = s.tracker.AppendLiveBoxes(s.boxes[:0])
		plan := s.sched.Plan(s.boxes, frame.W, frame.H)
		if plan.Full {
			s.regions.Clear()
		} else {
			s.regions.Set(plan.Regions)
		}
		tr.add(op, parent, "roi.plan", t0, time.Now())
		st.full, st.regions = plan.Full, len(plan.Regions)
	}
	if detect == nil {
		detect = d.DetectCtx
	}
	t0 := time.Now()
	dets, err := detect(ctx, frame)
	t1 := time.Now()
	if tr != nil && d == s.traced {
		id := tr.add(op, parent, "core.detect", t0, t1)
		tr.addStages(op, id, t0, s.rec.FrameStages())
	}
	if err != nil {
		return nil, st, err
	}
	if s.tracker != nil {
		t0 := time.Now()
		s.tracker.Update(dets)
		tr.add(op, parent, "track.update", t0, time.Now())
		st.live = len(s.tracker.AppendLiveBoxes(s.boxes[:0]))
	}
	return dets, st, nil
}

func runHD2Dense(o *options, tr *tracer) (*outcome, error) {
	frames, err := hd2Clip(o.seed)
	if err != nil {
		return nil, err
	}
	cfg := pedestrianConfig()
	cfg.MaxScales = 2
	cfg.Cascade = core.CascadeOff
	oc, err := runSingle(o, tr, frames, cfg, false)
	if err != nil {
		return nil, err
	}
	// The paper's hardware at the same input: accel's closed-form cycle
	// counts for one 1920x1080 2-scale frame at the design clock.
	rep, err := accel.AnalyticReport(accel.DefaultConfig(), hdW, hdH)
	if err != nil {
		return nil, err
	}
	clk := accel.DefaultConfig().ClockHz
	hwMS := func(c int64) float64 { return float64(c) / clk * 1000 }
	p50 := oc.extra["frame_ms_p50"].(float64)
	oc.notes = append(oc.notes, fmt.Sprintf(
		"paper reference (accel.AnalyticReport %dx%d, 2 scales, %.0f MHz): extractor %d cycles = %.3f ms, classifier %d cycles = %.3f ms, frame %d cycles = %.3f ms; paper_gap = frame_ms_p50 / hardware frame = %.1fx (not gated)",
		hdW, hdH, clk/1e6, rep.ExtractorCycles, hwMS(rep.ExtractorCycles), rep.ClassifierMax, hwMS(rep.ClassifierMax),
		rep.FrameCycles, hwMS(rep.FrameCycles), p50/hwMS(rep.FrameCycles)))
	oc.extra["paper_gap"] = p50 / hwMS(rep.FrameCycles)
	return oc, nil
}

func runHDROIClip(o *options, tr *tracer) (*outcome, error) {
	frames, err := roiClip(o.seed)
	if err != nil {
		return nil, err
	}
	cfg := pedestrianConfig()
	cfg.Cascade = core.CascadeExact
	return runSingle(o, tr, frames, cfg, true)
}

// runSingle drives a closed loop of one pedestrian detector over frames,
// cycled in order, with Workers = nproc.
func runSingle(o *options, tr *tracer, frames []*imgproc.Gray, cfg core.Config, withROI bool) (*outcome, error) {
	ctx := context.Background()
	n := len(frames)
	ref, src, err := reference(o, o.workload, n, func() ([][]det, error) {
		model, err := svm.Load(o.models.pedestrian)
		if err != nil {
			return nil, err
		}
		rc := cfg
		rc.Workers, rc.Cascade = 1, core.CascadeOff
		s, err := newSingleScene(model, rc, withROI, obs.NewMetrics())
		if err != nil {
			return nil, err
		}
		out := make([][]det, n)
		for f := range frames {
			dets, _, err := s.step(ctx, frames[f], f, s.plain, nil, 0, 0, nil)
			if err != nil {
				return nil, err
			}
			out[f] = fromEval("pedestrian", dets)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	cfg.Workers = runtime.NumCPU()
	m := obs.NewMetrics()
	var s *singleScene
	var model *svm.Model
	setup, err := timeSetup(func() (func(), error) {
		var err error
		if model, err = svm.Load(o.models.pedestrian); err != nil {
			return nil, err
		}
		if s, err = newSingleScene(model, cfg, withROI, m); err != nil {
			return nil, err
		}
		// Warm-up: frame 0 (a pass start, so the measured loop restarts
		// the scheduler and tracker anyway).
		_, _, err = s.step(ctx, frames[0], 0, s.plain, nil, 0, 0, nil)
		return func() { s, model = nil, nil }, err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	oc := newOutcome()
	oc.notes = append(oc.notes, "reference: "+src)
	var steps []frameStep
	var opStart, tracedCounts counters
	arena0 := snapshot(m, s.arena)
	res := closedLoop(o.seconds, n, tr, func(i int, traced bool) (bool, error) {
		f := i % n
		d, t, root := s.plain, (*tracer)(nil), -1
		if traced {
			d, t = s.traced, tr
			root = tr.begin(i, -1, "frame", time.Now())
			opStart = snapshot(m)
		}
		dets, st, err := s.step(ctx, frames[f], f, d, t, i, root, nil)
		if traced {
			tr.end(root, time.Now())
			tracedCounts = tracedCounts.add(snapshot(m).sub(opStart))
			steps = append(steps, st)
		}
		if err != nil {
			return false, err
		}
		return sameEval("pedestrian", dets, ref[f]), nil
	})
	arena := snapshot(m, s.arena).sub(arena0)
	if tr == nil {
		res.endToEndMetrics(oc, setup)
		return oc, nil
	}
	res.traceMetrics(oc, tr)
	tracedCounts.counterMetrics(oc, len(res.traced), arena, cfg.Cascade != core.CascadeOff)
	oc.extra["frame_ms_p50"] = median(res.plain)

	// Layer counts that need a pass of their own, outside the timed loop:
	// the pyramid levels and dense window count of this frame size, and the
	// NMS keep ratio (raw detections replayed through the same schedule and
	// tracker).
	levels, dense, err := densePyramid(model, cfg, frames[0])
	if err != nil {
		return nil, err
	}
	oc.metrics["featpyr.levels"] = float64(levels)
	var raw, kept int
	for f := range frames {
		var r int
		_, _, err := s.step(ctx, frames[f], f, s.plain, nil, 0, 0, func(ctx context.Context, fr *imgproc.Gray) ([]eval.Detection, error) {
			rd, err := s.plain.DetectRawCtx(ctx, fr)
			r = len(rd)
			return core.NMS(rd, cfg.NMSOverlap), err
		})
		if err != nil {
			return nil, err
		}
		raw += r
		kept += len(ref[f])
	}
	oc.metrics["core.nms_keep_ratio"] = ratio(float64(kept), float64(raw))
	windows := float64(dense)
	if cfg.Cascade != core.CascadeOff {
		windows = ratio(float64(tracedCounts.windows), float64(len(res.traced)))
	}
	oc.metrics["core.windows"] = windows
	oc.metrics["core.scan_ns_per_window"] = ratio(oc.metrics["core.scan_ms"]*1e6, windows)
	if withROI {
		var full, regions, live float64
		for _, st := range steps {
			regions += float64(st.regions)
			live += float64(st.live)
			if st.full {
				full++
			}
		}
		k := float64(len(steps))
		oc.metrics["roi.plan_us"] = medianOf(tr.perOp("roi.plan", false)) * 1000
		oc.metrics["roi.regions_per_frame"] = regions / k
		oc.metrics["roi.full_frame_share"] = full / k
		oc.metrics["roi.window_share"] = ratio(windows, float64(dense))
		oc.metrics["track.update_us"] = medianOf(tr.perOp("track.update", false)) * 1000
		oc.metrics["track.live_tracks"] = live / k
	}
	return oc, nil
}

// multiScene is the vga-multiclass state: the pedestrian and vehicle
// classes through core.MultiDetector, untraced and traced.
type multiScene struct {
	plain, traced *core.MultiDetector
	dets          [2]*core.Detector // untraced class detectors, for the raw replay
	recs          [2]*obs.DetectRecorder
	arenas        [2]*core.Arena
}

var classNames = [2]string{"pedestrian", "vehicle"}

func newMultiScene(o *options, workers int, m *obs.Metrics) (*multiScene, error) {
	s := &multiScene{}
	var plain, traced []core.Class
	for i, cfg := range []core.Config{pedestrianConfig(), vehicleConfig()} {
		path := o.models.pedestrian
		if i == 1 {
			path = o.models.vehicle
		}
		model, err := svm.Load(path)
		if err != nil {
			return nil, err
		}
		s.arenas[i] = core.NewArena()
		cfg.Arena = s.arenas[i]
		cfg.Workers = workers
		cfg.Cascade = core.CascadeOff
		if s.dets[i], err = core.NewDetector(model, cfg); err != nil {
			return nil, err
		}
		s.recs[i] = obs.NewDetectRecorder(m)
		cfg.Metrics = s.recs[i]
		td, err := core.NewDetector(model, cfg)
		if err != nil {
			return nil, err
		}
		plain = append(plain, core.Class{Name: classNames[i], Detector: s.dets[i]})
		traced = append(traced, core.Class{Name: classNames[i], Detector: td})
	}
	var err error
	if s.plain, err = core.NewMultiDetector(plain...); err != nil {
		return nil, err
	}
	s.traced, err = core.NewMultiDetector(traced...)
	return s, err
}

func runVGAMulticlass(o *options, tr *tracer) (*outcome, error) {
	frames, err := vgaFrames(o.seed)
	if err != nil {
		return nil, err
	}
	n := len(frames)
	ref, src, err := reference(o, o.workload, n, func() ([][]det, error) {
		s, err := newMultiScene(o, 1, obs.NewMetrics())
		if err != nil {
			return nil, err
		}
		out := make([][]det, n)
		for f, fr := range frames {
			dets, err := s.plain.Detect(fr)
			if err != nil {
				return nil, err
			}
			out[f] = fromClass(dets)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	// classes x workers = nproc, at least one worker per class.
	workers := max(1, runtime.NumCPU()/len(classNames))
	m := obs.NewMetrics()
	var s *multiScene
	setup, err := timeSetup(func() (func(), error) {
		var err error
		if s, err = newMultiScene(o, workers, m); err != nil {
			return nil, err
		}
		_, err = s.plain.Detect(frames[0])
		return func() { s = nil }, err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	oc := newOutcome()
	oc.notes = append(oc.notes, "reference: "+src, fmt.Sprintf("classes %d x workers %d", len(classNames), workers))
	var opStart, tracedCounts counters
	arena0 := snapshot(m, s.arenas[:]...)
	res := closedLoop(o.seconds, n, tr, func(i int, traced bool) (bool, error) {
		f := i % n
		if !traced {
			dets, err := s.plain.Detect(frames[f])
			return err == nil && sameDets(fromClass(dets), ref[f]), err
		}
		root := tr.begin(i, -1, "frame", time.Now())
		opStart = snapshot(m)
		t0 := time.Now()
		dets, err := s.traced.Detect(frames[f])
		t1 := time.Now()
		id := tr.add(i, root, "core.detect", t0, t1)
		// The classes run concurrently inside Detect; each class span is
		// its recorder's stage total, laid from the detect start.
		for c, rec := range s.recs {
			st := rec.FrameStages()
			var total int64
			for _, ns := range st {
				total += ns
			}
			cid := tr.add(i, id, "core.class."+classNames[c], t0, t0.Add(time.Duration(total)))
			tr.addStages(i, cid, t0, st)
		}
		tr.end(root, time.Now())
		tracedCounts = tracedCounts.add(snapshot(m).sub(opStart))
		return err == nil && sameDets(fromClass(dets), ref[f]), err
	})
	arena := snapshot(m, s.arenas[:]...).sub(arena0)
	if tr == nil {
		res.endToEndMetrics(oc, setup)
		return oc, nil
	}
	res.traceMetrics(oc, tr)
	tracedCounts.counterMetrics(oc, len(res.traced), arena, false)
	for _, c := range classNames {
		oc.metrics["core.class_ms."+c] = medianOf(tr.perOp("core.class."+c, false))
	}
	// Levels and windows are summed over the classes: each builds its own
	// pyramid today.
	var levels, windows, raw, kept int
	for _, d := range s.dets {
		l, w, err := densePyramid(d.Model(), d.Config(), frames[0])
		if err != nil {
			return nil, err
		}
		levels += l
		windows += w
		for _, fr := range frames {
			rd, err := d.DetectRaw(fr)
			if err != nil {
				return nil, err
			}
			raw += len(rd)
			kept += len(core.NMS(rd, d.Config().NMSOverlap))
		}
	}
	oc.metrics["featpyr.levels"] = float64(levels)
	oc.metrics["core.windows"] = float64(windows)
	oc.metrics["core.scan_ns_per_window"] = ratio(oc.metrics["core.scan_ms"]*1e6, float64(windows))
	oc.metrics["core.nms_keep_ratio"] = ratio(float64(kept), float64(raw))
	return oc, nil
}
