package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/svm"
)

// cascadeDetector builds a detector over the given model with the given
// pyramid mode, cascade mode, and worker count.
func cascadeDetector(t *testing.T, model *svm.Model, mode PyramidMode, cm CascadeMode, workers int) *Detector {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.Cascade = cm
	cfg.Workers = workers
	d, err := NewDetector(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameDetections asserts two detection lists are byte-identical: same
// length, same boxes, and bit-equal scores in the same order.
func sameDetections(t *testing.T, label string, want, got []eval.Detection) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d detections, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Box != want[i].Box {
			t.Fatalf("%s: detection %d box %v, want %v", label, i, got[i].Box, want[i].Box)
		}
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: detection %d score %v, want %v (bits differ)",
				label, i, got[i].Score, want[i].Score)
		}
	}
}

// TestCascadeExactBitIdentical is the end-to-end losslessness contract of
// ISSUE 9: with the exact cascade enabled, DetectRaw returns byte-identical
// detections (boxes and score bits) to the dense scan in every pyramid mode
// and at every worker count, on both a pedestrian scene and pure clutter.
func TestCascadeExactBitIdentical(t *testing.T) {
	det, g := testDetector(t)
	model := det.Model()

	ped, _ := sceneWithPedestrian(g, 320, 240, 128)
	clutter := g.Render(g.NewSpec(false), 320, 240)
	frames := []struct {
		name  string
		frame *imgproc.Gray
	}{{"pedestrian", ped}, {"clutter", clutter}}

	sawDetections := false
	for _, mode := range []PyramidMode{ImagePyramid, FeaturePyramid, FeaturePyramidChained, FeaturePyramidFixed} {
		dense := cascadeDetector(t, model, mode, CascadeOff, 1)
		for _, fr := range frames {
			want, err := dense.DetectRaw(fr.frame)
			if err != nil {
				t.Fatalf("%v/%s dense: %v", mode, fr.name, err)
			}
			if len(want) > 0 {
				sawDetections = true
			}
			for _, workers := range []int{1, 3} {
				exact := cascadeDetector(t, model, mode, CascadeExact, workers)
				got, err := exact.DetectRaw(fr.frame)
				if err != nil {
					t.Fatalf("%v/%s exact w=%d: %v", mode, fr.name, workers, err)
				}
				sameDetections(t, mode.String()+"/"+fr.name, want, got)
			}
		}
	}
	// The equivalence must not be vacuous: at least one frame/mode pair has
	// to produce detections for the bit-compare to mean anything.
	if !sawDetections {
		t.Fatal("no mode detected anything; the differential test is vacuous")
	}
}

// concentratedModel builds a synthetic model whose weight mass decays
// geometrically across window block rows (amplitude A*rho^r). Real pruning
// needs such concentration — an i.i.d.-weight model has a Cauchy-Schwarz
// bound far above any achievable score — and a soft-cascade-trained SVM has
// exactly this shape (a few rows carry most of the margin).
func concentratedModel(cfg Config, seed int64, amp, rho float64) *svm.Model {
	wbx, wby := cfg.windowBlocks()
	rowLen := wbx * cfg.HOG.BlockLen()
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, wby*rowLen)
	for r := 0; r < wby; r++ {
		a := amp * math.Pow(rho, float64(r))
		for i := r * rowLen; i < (r+1)*rowLen; i++ {
			w[i] = a * rng.NormFloat64()
		}
	}
	return &svm.Model{W: w}
}

// TestCascadeExactPrunes checks the cascade actually earns its keep on
// clutter: with a concentrated-mass model and a positive threshold, the
// exact scan evaluates a fraction of each window's blocks, the per-stage
// rejection counters fill in, and the detections still match the dense scan
// bit for bit.
func TestCascadeExactPrunes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Threshold = 0.5
	model := concentratedModel(cfg, 41, 0.02, 0.55)

	dense, err := NewDetector(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cascade = CascadeExact
	cfg.Metrics = obs.NewDetectRecorder(obs.NewMetrics())
	exact, err := NewDetector(model, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	frame := imgproc.NewGray(320, 240)
	for i := range frame.Pix {
		frame.Pix[i] = uint8(rng.Intn(256))
	}
	want, err := dense.DetectRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exact.DetectRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	sameDetections(t, "clutter", want, got)

	wbx, wby := cfg.windowBlocks()
	cs := cfg.Metrics.Metrics().CascadeSnapshot()
	if cs.Windows == 0 {
		t.Fatal("cascade saw no windows")
	}
	if cs.Accepted >= cs.Windows {
		t.Fatalf("no pruning: %d accepted of %d windows", cs.Accepted, cs.Windows)
	}
	full := float64(wbx * wby)
	if cs.MeanBlocks >= full/2 {
		t.Errorf("mean %.1f blocks per window, want well under the dense %g", cs.MeanBlocks, full)
	}
	if len(cs.StageRejects) == 0 {
		t.Error("no per-stage rejection counts recorded")
	}
	var rejects uint64
	for _, n := range cs.StageRejects {
		rejects += n
	}
	if rejects+cs.Accepted != cs.Windows {
		t.Errorf("counter imbalance: %d rejects + %d accepted != %d windows",
			rejects, cs.Accepted, cs.Windows)
	}
}

// TestCascadeCalibratedSubset checks the opt-in lossy mode: calibrated
// detections are a subset of the dense scan's, each with a bit-identical
// score, and the mode is deterministic across worker counts. It also pins
// the constructor contract that calibrated mode demands a calibrated model.
func TestCascadeCalibratedSubset(t *testing.T) {
	det, g := testDetector(t)
	model := det.Model().Clone()
	cfg := DefaultConfig()

	// Fit floors on freshly rendered positives, exactly as pdtrain does.
	set, err := g.RenderAt(g.NewSpecSet(25, 0), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := ExtractDescriptors(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wbx, wby := cfg.windowBlocks()
	casc, err := svm.NewCascade(model, wbx, wby, cfg.HOG.BlockLen())
	if err != nil {
		t.Fatal(err)
	}
	const margin = 0.05
	floors, err := casc.Calibrate(model, pos, margin)
	if err != nil {
		t.Fatal(err)
	}
	model.Calib = &svm.CascadeCalib{Stages: wby, Margin: margin, Thresholds: floors}

	frame, _ := sceneWithPedestrian(dataset.New(1003), 320, 240, 128)
	dense := cascadeDetector(t, model, FeaturePyramid, CascadeOff, 1)
	want, err := dense.DetectRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[detIdentity]bool, len(want))
	for _, d := range want {
		byKey[detKey(d)] = true
	}

	cal1 := cascadeDetector(t, model, FeaturePyramid, CascadeCalibrated, 1)
	got, err := cal1.DetectRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > len(want) {
		t.Fatalf("calibrated found %d detections, dense only %d", len(got), len(want))
	}
	for i, d := range got {
		if !byKey[detKey(d)] {
			t.Fatalf("calibrated detection %d (%v score %v) absent from the dense scan", i, d.Box, d.Score)
		}
	}
	cal3 := cascadeDetector(t, model, FeaturePyramid, CascadeCalibrated, 3)
	got3, err := cal3.DetectRaw(frame)
	if err != nil {
		t.Fatal(err)
	}
	sameDetections(t, "calibrated w=1 vs w=3", got, got3)

	// Calibrated mode without an embedded calibration must fail loudly at
	// construction, not silently scan dense.
	bare := det.Model()
	badCfg := DefaultConfig()
	badCfg.Cascade = CascadeCalibrated
	if _, err := NewDetector(bare, badCfg); err == nil {
		t.Error("calibrated cascade accepted a model with no calibration")
	}
}

// detIdentity is a map key identifying a detection exactly: the box and the
// score at full bit precision.
type detIdentity struct {
	box   geom.Rect
	score uint64
}

func detKey(d eval.Detection) detIdentity {
	return detIdentity{box: d.Box, score: math.Float64bits(d.Score)}
}

// TestCascadeOctaveFallsBackDense checks exact mode on the octave pyramid.
// With Scale.Lambda 0.1 the levels carry no block-norm bound, so exact mode
// silently degrades to the dense scan: identical detections, and zero
// cascade traffic in the counters (nothing was staged, so nothing is
// misreported as pruned). With Lambda 0 every level is bounded: the scan
// stages windows and stays bit-identical to dense.
func TestCascadeOctaveFallsBackDense(t *testing.T) {
	det, g := testDetector(t)
	model := det.Model()
	frame, _ := sceneWithPedestrian(g, 320, 240, 128)

	for _, lambda := range []float64{0.1, 0} {
		cfg := DefaultConfig()
		cfg.Mode = OctavePyramid
		cfg.Scale.Lambda = lambda
		cfg.Workers = 1
		dense, err := NewDetector(model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dense.DetectRaw(frame)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cascade = CascadeExact
		cfg.Metrics = obs.NewDetectRecorder(obs.NewMetrics())
		exact, err := NewDetector(model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exact.DetectRaw(frame)
		if err != nil {
			t.Fatal(err)
		}
		sameDetections(t, fmt.Sprintf("octave lambda=%g", lambda), want, got)
		staged := cfg.Metrics.Metrics().CascadeSnapshot().Windows
		if lambda != 0 && staged != 0 {
			t.Errorf("lambda %g: octave scan staged %d windows; unbounded levels must scan dense", lambda, staged)
		}
		if lambda == 0 && staged == 0 {
			t.Error("lambda 0: octave scan staged no windows; bounded levels must run the cascade")
		}
	}
}

// TestScoreMapsCascadeThresholdEquivalent checks the documented score-map
// contract under the cascade: maps are thresholding-equivalent to dense
// maps — anchors above the decision threshold are bit-identical, pruned
// anchors record an upper bound at or below it.
func TestScoreMapsCascadeThresholdEquivalent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Threshold = 0.5
	model := concentratedModel(cfg, 43, 0.02, 0.55)

	dense, err := NewDetector(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cascade = CascadeExact
	exact, err := NewDetector(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	frame := imgproc.NewGray(320, 240)
	for i := range frame.Pix {
		frame.Pix[i] = uint8(rng.Intn(256))
	}
	want, err := dense.ScoreMaps(frame)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exact.ScoreMaps(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d maps, want %d", len(got), len(want))
	}
	pruned := 0
	for li := range want {
		dm, cm := want[li], got[li]
		if cm.W != dm.W || cm.H != dm.H || cm.Scale != dm.Scale || cm.ScaleY != dm.ScaleY {
			t.Fatalf("level %d geometry diverged", li)
		}
		for i := range dm.Scores {
			dv, cv := dm.Scores[i], cm.Scores[i]
			if math.Float64bits(dv) == math.Float64bits(cv) {
				continue
			}
			pruned++
			// The values differ only where the cascade pruned, and a pruned
			// anchor's recorded bound must agree with the dense map that the
			// anchor is below threshold.
			if cv > cfg.Threshold {
				t.Fatalf("level %d anchor %d: pruned value %v above threshold %g", li, i, cv, cfg.Threshold)
			}
			if dv > cfg.Threshold {
				t.Fatalf("level %d anchor %d: cascade pruned an anchor the dense map scores %v", li, i, dv)
			}
		}
	}
	if pruned == 0 {
		t.Error("cascade score maps identical everywhere; pruning never engaged")
	}
}

// TestDetectAllocsCascade re-pins the TestDetectAllocs steady-state budget
// with the exact cascade and the observability layer both enabled: the
// staged path must stay allocation-free (stack row scratch, stack tallies)
// even while every window is being pruned and counted.
func TestDetectAllocsCascade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.Cascade = CascadeExact
	cfg.Metrics = obs.NewDetectRecorder(obs.NewMetrics())
	// A zero-weight model has zero suffix bounds, so every window is
	// rejected at stage one: the maximal-traffic path for the tally code.
	model := &svm.Model{W: make([]float64, cfg.DescriptorLen()), B: -1}
	d, err := NewDetector(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	frame := imgproc.NewGray(320, 240)
	for i := range frame.Pix {
		frame.Pix[i] = uint8(rng.Intn(256))
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Detect(frame); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 32
	n := testing.AllocsPerRun(20, func() {
		if _, err := d.Detect(frame); err != nil {
			t.Fatal(err)
		}
	})
	if n > budget {
		t.Errorf("Detect with cascade: %v allocs/op in steady state, budget %d", n, budget)
	}
	cs := cfg.Metrics.Metrics().CascadeSnapshot()
	if cs.Windows == 0 || cs.Accepted != 0 {
		t.Errorf("zero-weight model should stage and reject everything: %+v", cs)
	}
	if cs.MeanBlocks >= float64(cfg.DescriptorLen())/float64(cfg.HOG.BlockLen()) {
		t.Errorf("mean blocks %v shows no stage-one rejection", cs.MeanBlocks)
	}
}
