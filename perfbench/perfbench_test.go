package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/imgproc"
)

func hashFrames(frames ...*imgproc.Gray) string {
	h := sha256.New()
	for _, f := range frames {
		fmt.Fprintf(h, "%dx%d;", f.W, f.H)
		h.Write(f.Pix)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// inputHash renders every input of every workload for one seed and hashes
// them: clip frames, scenes, crop bodies and the arrival schedules.
func inputHashes(t *testing.T, seed int64) map[string]string {
	t.Helper()
	out := make(map[string]string)
	hd2, err := hd2Clip(seed)
	if err != nil {
		t.Fatal(err)
	}
	out["hd2-dense"] = hashFrames(hd2...)
	roi, err := roiClip(seed)
	if err != nil {
		t.Fatal(err)
	}
	out["hd-roi-clip"] = hashFrames(roi...)
	vga, err := vgaFrames(seed)
	if err != nil {
		t.Fatal(err)
	}
	out["vga-multiclass"] = hashFrames(vga...)
	imgs, bodies, err := cropSet(seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
	}
	out["serve-crops"] = hashFrames(imgs...) + fmt.Sprintf("%x", h.Sum(nil))
	out["schedule"] = fmt.Sprint(schedule(seed, 0, refRate, 2*time.Second), schedule(seed, 3, ladderStart, ladderStepLen))
	return out
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	a, b, c := inputHashes(t, 1), inputHashes(t, 1), inputHashes(t, 2)
	for k := range a {
		if a[k] != b[k] {
			t.Errorf("%s: same seed gave different inputs", k)
		}
		if a[k] == c[k] {
			t.Errorf("%s: seeds 1 and 2 gave identical inputs", k)
		}
	}
}

func TestScheduleRate(t *testing.T) {
	s := schedule(7, 0, 500, 10*time.Second)
	if n := len(s); n < 4700 || n > 5300 {
		t.Fatalf("500 rps over 10 s drew %d arrivals", n)
	}
	for i := 1; i < len(s); i++ {
		if s[i].due < s[i-1].due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 50}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 50 {
		t.Fatalf("covered = %d, want 50", got)
	}
}

func TestQuantileOfFailures(t *testing.T) {
	if got := quantile([]float64{1, 2, math.Inf(1), math.Inf(1)}, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 over two +Inf = %v, want +Inf", got)
	}
	if got := quantile([]float64{1, 2, 3, math.Inf(1)}, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 between 3 and +Inf = %v, want +Inf", got)
	}
}

// TestWindowLatency: stalls that delay every fifth request push the
// whole-phase p90 to the stall length but leave the window medians alone;
// one slow second of ten shows in the p90 over windows.
// TestClosedLoopRunsEveryInput: with no time budget the loop still runs
// every input once, and files each untraced op's CPU time under its input.
func TestClosedLoopRunsEveryInput(t *testing.T) {
	var ran []int
	r := closedLoop(0, 3, nil, func(i int, traced bool) (bool, error) {
		ran = append(ran, i)
		return !traced, nil
	})
	if r.ops != 3 || r.failed != 0 || fmt.Sprint(ran) != "[0 1 2]" {
		t.Fatalf("ran %v: %d ops, %d failed; want inputs 0-2 once, none failed", ran, r.ops, r.failed)
	}
	for k, xs := range r.plainCPU {
		if len(xs) != 1 || !(xs[0] >= 0) {
			t.Errorf("input %d: CPU times %v, want one", k, xs)
		}
	}
}

func TestCalibration(t *testing.T) {
	if c := calibrate(); !(c > 0) || math.IsInf(c, 0) {
		t.Fatalf("calibration loop took %v ms of CPU", c)
	}
	// A host running at half speed doubles both times.
	if got := scaled(4, 2*calibNominalMS); got != 2 {
		t.Errorf("scaled(4 ms, calibration 2 ms) = %v, want 2", got)
	}
	if c0, c1 := processCPU(), processCPU(); c1 < c0 {
		t.Errorf("process CPU clock went back: %v then %v", c0, c1)
	}
}

func TestWindowLatency(t *testing.T) {
	var reqs []request
	for i := 0; i < 1000; i++ {
		due := time.Duration(i) * 10 * time.Millisecond
		lat := 2 * time.Millisecond
		switch {
		case due >= 9*time.Second:
			lat = 12 * time.Millisecond
		case i%5 == 0:
			lat = 50 * time.Millisecond
		}
		reqs = append(reqs, request{due: due, sent: due, done: due + lat, sentOK: true, ok: true})
	}
	if whole := summarise(100, reqs).P90; whole != 50 {
		t.Fatalf("whole-phase p90 = %v, want 50", whole)
	}
	// Window medians: nine of 2 ms and one of 12 ms; their p90 sits at
	// position 8.1 of 0..9.
	if p50, p90 := windowLatency(reqs, 10*time.Second); p50 != 2 || math.Abs(p90-3) > 1e-9 {
		t.Errorf("window p50 %v p90 %v, want 2 and 3", p50, p90)
	}
}

// kneeHost is a host whose p99 is 5 ms below capacity and 400 ms above it,
// with optional failing phases at given rates (transients).
func kneeHost(capacity float64, failAt ...float64) (run func(float64) phaseStats, played *[]float64) {
	var rates []float64
	return func(rate float64) phaseStats {
		rates = append(rates, rate)
		for _, f := range failAt {
			if rate == f {
				return phaseStats{Rate: rate, P99: 80}
			}
		}
		if rate < capacity {
			return phaseStats{Rate: rate, P99: 5}
		}
		return phaseStats{Rate: rate, P99: 400}
	}, &rates
}

func TestFindKnee(t *testing.T) {
	never := func() bool { return false }
	// The limit's place between 5 ms and 400 ms on a log scale.
	x := (math.Log(latencyLimitMS) - math.Log(5)) / (math.Log(400) - math.Log(5))
	for _, capacity := range []float64{700, 1000, 1500} {
		run, played := kneeHost(capacity)
		got, phases := findKnee(run, never)
		if len(phases) != len(*played) {
			t.Fatalf("capacity %v: %d phases reported, %d played", capacity, len(phases), len(*played))
		}
		// The bisections narrow the ladder's x1.5 bracket to x1.5^(1/16).
		width := math.Pow(ladderStep, 1/math.Pow(2, kneeBisections))
		if got < capacity/width || got >= capacity*width {
			t.Errorf("capacity %v: sustained %v, want within x%.3f of it", capacity, got, width)
		}
	}

	// A single failing rate followed by a passing one is skipped.
	run, _ := kneeHost(1500, ladderStart*ladderStep)
	if got, _ := findKnee(run, never); got < 1400 || got >= 1600 {
		t.Errorf("transient: sustained %v, want about 1500", got)
	}

	// A phase where 5% of the requests failed: the order statistics around
	// its p99 are both +Inf, and the rate must count as failing.
	failing := make([]request, 100)
	for i := range failing {
		failing[i] = request{sentOK: true, ok: i >= 5, done: 2 * time.Millisecond}
	}
	heavy := summarise(500, failing)
	if !math.IsInf(heavy.P99, 1) {
		t.Fatalf("p99 of a phase with 5%% failures = %v, want +Inf", heavy.P99)
	}
	n := 0
	got, _ := findKnee(func(rate float64) phaseStats {
		if n++; n >= 2 {
			return phaseStats{Rate: rate, P99: heavy.P99}
		}
		return phaseStats{Rate: rate, P99: 5}
	}, func() bool { return n >= 3 })
	if got != ladderStart {
		t.Errorf("failures: sustained %v, want the last passing rate %v", got, ladderStart)
	}

	// The time ends on an unconfirmed failure: that rate is the knee.
	n = 0
	got, _ = findKnee(func(rate float64) phaseStats {
		n++
		if rate > ladderStart {
			return phaseStats{Rate: rate, P99: 400}
		}
		return phaseStats{Rate: rate, P99: 5}
	}, func() bool { return n >= 2 })
	if want := ladderStart + x*(ladderStart*ladderStep-ladderStart); math.Abs(got-want) > 1e-9 {
		t.Errorf("time ends on a failure: sustained %v, want %v", got, want)
	}

	// A search that never fails reports its top rate.
	n = 0
	got, _ = findKnee(func(rate float64) phaseStats { n++; return phaseStats{Rate: rate, P99: 5} }, func() bool { return n >= 3 })
	if want := ladderStart * ladderStep * ladderStep; math.Abs(got-want) > 1e-9 {
		t.Errorf("never fails: sustained %v, want %v", got, want)
	}
}

// reaches lists, per workload, the per-layer metrics its traced run must
// measure itself; the others read 0 in the report. bench.trace_overhead_pct
// needs both traced and untraced operations, which a smoke run may lack.
var reaches = func() map[string][]string {
	front := []string{"hog.cells_ms", "hog.norm_ms", "hog.cells_calls_per_frame", "featpyr.build_ms", "featpyr.levels",
		"core.scan_ms", "core.windows", "core.scan_ns_per_window", "core.nms_ms", "core.nms_keep_ratio",
		"core.arena_miss_ratio", "core.allocs_per_frame", "bench.traced_op_ms_p50", "bench.stage_share_pct"}
	with := func(more ...string) []string { return append(append([]string(nil), front...), more...) }
	return map[string][]string{
		"hd2-dense": with(),
		"hd-roi-clip": with("core.cascade_blocks_per_window", "core.cascade_reject_ratio",
			"roi.plan_us", "roi.regions_per_frame", "roi.full_frame_share", "roi.window_share",
			"track.update_us", "track.live_tracks"),
		"vga-multiclass": with("core.class_ms.pedestrian", "core.class_ms.vehicle"),
		"serve-crops": with("imgproc.decode_ms_p50", "serve.roundtrip_ms_p50", "serve.shed", "serve.breaker_rejected",
			"serve.admitted_share", "rt.queue_wait_ms_p50", "rt.queue_wait_ms_p99", "rt.frame_ms_p50",
			"rt.frames_dropped", "rt.degraded_frames", "gateway.overhead_ms_p50", "gateway.attempts_per_request",
			"gateway.hedges_fired", "gateway.hedge_wins", "gateway.retries", "loadgen.late_ms_p99"),
	}
}()

// TestSmoke runs every workload for one operation, untraced and traced, and
// requires the correctness check to pass, every end-to-end metric and every
// layer the workload reaches to be measured, and the pyramid the workload's
// configuration asks for.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the models and renders 1080p clips")
	}
	dir := t.TempDir()
	if err := trainModels(dir); err != nil {
		t.Fatal(err)
	}
	o := &options{
		seed: 1, seconds: 500 * time.Millisecond, out: dir, digests: "testdata",
		models: modelFiles{pedestrian: dir + "/pedestrian.model", vehicle: dir + "/vehicle.model"},
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o.workload, o.trace = w.name, traced
			var tr *tracer
			var want []string
			for _, m := range endToEnd {
				want = append(want, m.name)
			}
			if traced {
				tr, want = newTracer(), reaches[w.name]
			}
			oc, err := w.run(o, tr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if oc.attempted < 1 || oc.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w.name, traced, oc.failed, oc.attempted, oc.notes)
			}
			for _, m := range want {
				if _, ok := oc.metrics[m]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, m)
				}
			}
			if !traced {
				continue
			}
			// MaxScales=2 builds two levels; the full 1080p pyramid many
			// more; each multiclass class builds a pyramid of its own.
			levels := oc.metrics["featpyr.levels"]
			switch w.name {
			case "hd2-dense":
				if levels != 2 {
					t.Errorf("hd2-dense: featpyr.levels = %v, want 2", levels)
				}
			case "hd-roi-clip", "vga-multiclass":
				if levels <= 2 {
					t.Errorf("%s: featpyr.levels = %v, want a full pyramid (> 2)", w.name, levels)
				}
			}
		}
	}
}
