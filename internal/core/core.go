// Package core implements the paper's primary contribution as a library:
// multi-scale sliding-window pedestrian detection with HOG features and a
// linear SVM, supporting both the conventional image-pyramid method and the
// proposed HOG-feature-pyramid method (Section 4), plus the two
// single-window classification scenarios of Figure 3 used by the Table 1 /
// Figure 4 analysis.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/featpyr"
	"repro/internal/geom"
	"repro/internal/hog"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/svm"
)

// PyramidMode selects how the detector covers scales.
type PyramidMode int

const (
	// ImagePyramid is the conventional method: the frame is resized per
	// scale and HOG features are recomputed at every level.
	ImagePyramid PyramidMode = iota
	// FeaturePyramid is the paper's method: HOG features are extracted
	// once at native scale and the normalized feature map is down-sampled
	// per level (each level interpolated directly from the base map).
	FeaturePyramid
	// FeaturePyramidChained down-samples each level from the previous one,
	// matching the hardware's cascaded scaler modules (Figure 6).
	FeaturePyramidChained
	// FeaturePyramidFixed is FeaturePyramidChained computed with the
	// bit-accurate shift-and-add fixed-point scaler.
	FeaturePyramidFixed
	// OctavePyramid is the fast feature pyramid of Dollar et al. (TPAMI
	// 2014), the paper's reference [4]: HOG features are extracted once per
	// octave (frame scales 1, 2, 4, ...) and each level in between resamples
	// the nearest finer octave with the power-law correction of
	// Scale.Lambda. The paper's method is its single-octave, Lambda 0 case.
	OctavePyramid
)

// String implements fmt.Stringer.
func (m PyramidMode) String() string {
	switch m {
	case ImagePyramid:
		return "image-pyramid"
	case FeaturePyramid:
		return "feature-pyramid"
	case FeaturePyramidChained:
		return "feature-pyramid-chained"
	case FeaturePyramidFixed:
		return "feature-pyramid-fixed"
	case OctavePyramid:
		return "octave-pyramid"
	}
	return fmt.Sprintf("PyramidMode(%d)", int(m))
}

// Config holds the detector parameters. Use DefaultConfig as a baseline.
type Config struct {
	HOG     hog.Config
	WindowW int // detection window width in pixels (64)
	WindowH int // detection window height in pixels (128)
	// ScaleStep is the pyramid ratio between adjacent scales (1.1).
	ScaleStep float64
	// MaxScales caps the number of pyramid levels; 0 means as many as fit.
	// The paper's hardware uses 2 (memory-limited, Section 5).
	MaxScales int
	// Mode selects image- versus feature-pyramid detection.
	Mode PyramidMode
	// Threshold is the SVM decision threshold: windows scoring above it
	// are detections.
	Threshold float64
	// NMSOverlap is the IoU above which overlapping detections are
	// suppressed; <= 0 disables NMS.
	NMSOverlap float64
	// Interp is the resampling kernel for the image pyramid.
	Interp imgproc.Interp
	// Scale configures the float feature scaler.
	Scale featpyr.ScaleConfig
	// Fixed configures the fixed-point scaler (FeaturePyramidFixed); nil
	// uses featpyr.NewFixedScaler defaults.
	Fixed *featpyr.FixedScaler
	// Cascade selects staged early-rejection window scoring (see
	// CascadeMode). CascadeExact is pure optimization — detections stay
	// bit-identical to CascadeOff at every worker count; CascadeCalibrated
	// trades a measured miss bound for more pruning and needs a calibrated
	// model. Off by default.
	Cascade CascadeMode
	// Workers bounds the goroutines used on the detection hot path: pyramid
	// levels are built and scanned concurrently, each level sharded across
	// window rows. 0 means GOMAXPROCS; 1 scans serially. Window scores do
	// not depend on sharding and shard results are merged in raster order,
	// so every worker count produces identical detections. This is the
	// software analogue of the paper's eight parallel MACBAR classifiers
	// scoring window columns side by side.
	Workers int
	// SkipFinest drops the N finest (most expensive) pyramid levels from
	// scanning, keeping at least the coarsest level. The streaming runtime
	// (internal/rt) uses it to shed load under deadline pressure, mirroring
	// the paper's memory-limited 2-scale hardware operating point: the
	// finest levels carry by far the most windows, so dropping them first
	// buys the largest latency reduction at the smallest coverage loss
	// (far-field detection range goes first).
	SkipFinest int
	// Arena, if non-nil, supplies the pooled per-frame HOG scratch for the
	// detect path; detectors sharing an Arena share its buffers (the
	// streaming runtime hands one arena to every degradation rung). nil
	// gives the detector a private arena in NewDetector.
	Arena *Arena
	// Regions, if non-nil, is the mutable region-of-interest holder for
	// temporal scan scheduling (internal/roi): while the set is active,
	// DetectRaw and ScoreMaps scan only the windows whose center falls in
	// one of its frame-pixel rectangles, mapped per level into
	// window-anchor spans; while inactive, scans are dense. Like Arena it
	// is shared across detectors (every rung of a streaming pipeline reads
	// the same set) and owns the reusable span scratch that keeps the
	// restricted path allocation-free. It serves one in-flight frame at a
	// time — mutate it only between frames. Restriction composes with
	// Workers sharding and both cascade modes and preserves raster-order
	// determinism.
	Regions *RegionSet
	// Metrics, if non-nil, receives per-stage latency observations from the
	// detect path: HOG cell binning and normalization (via the arena
	// scratch), pyramid construction, window scanning, and NMS, plus
	// per-level resample timings. Recording is lock-free and
	// allocation-free, so the alloc budgets hold with metrics enabled; nil
	// (the default) leaves the hot path with a single predicted-not-taken
	// branch per stage. A DetectRecorder accumulates one frame at a time:
	// detectors running frames concurrently need distinct recorders, which
	// may share one *obs.Metrics registry (its histograms are atomic).
	Metrics *obs.DetectRecorder
	// LevelProbe, if non-nil, is invoked once per scanned pyramid level
	// (with its absolute pyramid index, assigned before any skipping) at
	// the start of every scan. A non-nil return aborts the frame with that
	// error. It exists for instrumentation and fault injection
	// (internal/rt/faultinject models per-level stalls and poison scales
	// through it); levels shed via SkipFinest are not probed, which is what
	// lets the runtime degrade around an injected per-level fault.
	LevelProbe func(ctx context.Context, level int) error
}

// DefaultConfig returns the paper's detector configuration with the
// feature-pyramid mode and unlimited scales.
func DefaultConfig() Config {
	return Config{
		HOG:        hog.DefaultConfig(),
		WindowW:    64,
		WindowH:    128,
		ScaleStep:  1.1,
		Mode:       FeaturePyramid,
		Threshold:  0,
		NMSOverlap: 0.3,
		Interp:     imgproc.Bilinear,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.HOG.Validate(); err != nil {
		return err
	}
	if c.WindowW < c.HOG.CellSize || c.WindowH < c.HOG.CellSize {
		return fmt.Errorf("core: window %dx%d smaller than a cell", c.WindowW, c.WindowH)
	}
	if c.WindowW%c.HOG.CellSize != 0 || c.WindowH%c.HOG.CellSize != 0 {
		return fmt.Errorf("core: window %dx%d not a whole number of %d-px cells",
			c.WindowW, c.WindowH, c.HOG.CellSize)
	}
	if c.ScaleStep <= 1 {
		return fmt.Errorf("core: scale step %g must exceed 1", c.ScaleStep)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", c.Workers)
	}
	if c.SkipFinest < 0 {
		return fmt.Errorf("core: negative skip-finest count %d", c.SkipFinest)
	}
	return nil
}

// workers resolves the configured worker count (0 means GOMAXPROCS).
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DescriptorLen returns the feature-vector length a model must have for
// this configuration.
func (c Config) DescriptorLen() int { return c.HOG.DescriptorLen(c.WindowW, c.WindowH) }

// windowBlocks returns the window size in blocks.
func (c Config) windowBlocks() (bx, by int) {
	cx, cy := c.HOG.WindowCells(c.WindowW, c.WindowH)
	return c.HOG.WindowBlocks(cx, cy)
}

// Detector is a trained multi-scale pedestrian detector.
type Detector struct {
	cfg   Config
	model *svm.Model
	arena *Arena
	// plan is the cascade stage schedule (nil when Cascade is off), built
	// once in NewDetector and shared read-only by every scan worker.
	plan *hog.StagePlan
}

// NewDetector validates the configuration against the model dimensions.
func NewDetector(model *svm.Model, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if want := cfg.DescriptorLen(); len(model.W) != want {
		return nil, fmt.Errorf("core: model has %d weights, config needs %d", len(model.W), want)
	}
	arena := cfg.Arena
	if arena == nil {
		arena = NewArena()
	}
	// Route per-level resample timings of the float scalers into the
	// registry's pyramid-level histogram unless the caller installed an
	// explicit timer (the fixed scaler is timed directly in buildLevels).
	if cfg.Scale.LevelTimer == nil {
		cfg.Scale.LevelTimer = cfg.Metrics.LevelTimer()
	}
	plan, err := buildStagePlan(model, cfg)
	if err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, model: model, arena: arena, plan: plan}, nil
}

// Config returns the detector's configuration.
func (d *Detector) Config() Config { return d.cfg }

// Model returns the detector's SVM model.
func (d *Detector) Model() *svm.Model { return d.model }

// Detect runs multi-scale detection on the frame and returns the surviving
// detections (after thresholding and NMS) in frame pixel coordinates,
// highest score first.
func (d *Detector) Detect(frame *imgproc.Gray) ([]eval.Detection, error) {
	return d.DetectCtx(context.Background(), frame)
}

// DetectCtx is Detect with cooperative cancellation: pyramid construction
// and window scanning observe ctx and return ctx.Err() promptly (within one
// window row / one pyramid level) once it is cancelled or its deadline
// passes. The streaming runtime (internal/rt) uses it to enforce the
// per-frame budget of das.FrameBudget.
func (d *Detector) DetectCtx(ctx context.Context, frame *imgproc.Gray) ([]eval.Detection, error) {
	raw, err := d.DetectRawCtx(ctx, frame)
	if err != nil {
		return nil, err
	}
	if d.cfg.NMSOverlap > 0 {
		t0 := time.Now()
		raw = NMS(raw, d.cfg.NMSOverlap)
		d.cfg.Metrics.Observe(obs.StageNMS, time.Since(t0))
	}
	return raw, nil
}

// DetectRaw runs multi-scale detection without non-maximum suppression.
func (d *Detector) DetectRaw(frame *imgproc.Gray) ([]eval.Detection, error) {
	return d.DetectRawCtx(context.Background(), frame)
}

// DetectRawCtx is DetectRaw with cooperative cancellation (see DetectCtx).
func (d *Detector) DetectRawCtx(ctx context.Context, frame *imgproc.Gray) ([]eval.Detection, error) {
	out, _, err := d.scanFrame(ctx, frame, false)
	if err != nil {
		return nil, err
	}
	sortByScore(out)
	return out, nil
}

// pyrLevel is one scale of either pyramid flavour. sx and sy map level pixel
// coordinates back to frame pixels; they differ in general because level
// grids are rounded to integers independently per axis. index is the
// absolute pyramid level (0 = finest), stable under SkipFinest so that
// LevelProbe and the degradation ladder agree on which scale is which.
type pyrLevel struct {
	fm     *hog.FeatureMap
	sx, sy float64
	index  int
	// normCap bounds the L2 norm of any block vector of this level's map
	// (levelNormCap); 0 means no bound is available and the exact cascade
	// scans the level dense.
	normCap float64
	// spans restricts the scan to these anchor rectangles (applyRegions):
	// nil scans the whole level dense, a non-nil empty slice skips the
	// level entirely (the active region set touches none of its anchors).
	spans []anchorSpan
}

// maxLevels returns the level cap handed to the pyramid builders.
func (d *Detector) maxLevels() int {
	if d.cfg.MaxScales > 0 {
		return d.cfg.MaxScales
	}
	return 0 // unlimited, bounded by window fit
}

// levelSize is one planned image-pyramid level: its absolute index and the
// rounded pixel dimensions (the same rounding as imgproc.Pyramid).
type levelSize struct {
	index int
	w, h  int
}

// pyramidSizes enumerates resized-frame level geometries (image-pyramid
// levels, or the real octaves at step 2): level i is the frame divided by
// step^i, stopping when the detection window no longer fits or after maxL
// levels (0 means no cap).
func (d *Detector) pyramidSizes(frameW, frameH int, step float64, maxL int) []levelSize {
	if maxL <= 0 {
		maxL = math.MaxInt32
	}
	var out []levelSize
	for i := 0; i < maxL; i++ {
		f := math.Pow(step, float64(i))
		w := int(math.Round(float64(frameW) / f))
		h := int(math.Round(float64(frameH) / f))
		if w < d.cfg.WindowW || h < d.cfg.WindowH {
			break
		}
		out = append(out, levelSize{index: i, w: w, h: h})
	}
	return out
}

// skipFinest resolves the effective number of finest levels to shed for a
// pyramid of n levels: the configured count, clamped so that at least the
// coarsest level survives.
func (d *Detector) skipFinest(n int) int {
	skip := d.cfg.SkipFinest
	if skip >= n {
		skip = n - 1
	}
	if skip < 0 {
		skip = 0
	}
	return skip
}

// buildLevels constructs the pyramid of the configured mode and returns its
// levels with their per-axis frame-mapping factors, plus a release function
// that recycles pooled feature storage once scanning is done. Both DetectRaw
// and ScoreMaps go through here, so every mode scores the same levels in
// both entry points. Construction observes ctx: extraction stops within one
// pyramid level of cancellation.
func (d *Detector) buildLevels(ctx context.Context, frame *imgproc.Gray) ([]pyrLevel, func(), error) {
	noop := func() {}
	wbx, wby := d.cfg.windowBlocks()
	switch d.cfg.Mode {
	case ImagePyramid:
		sizes := d.pyramidSizes(frame.W, frame.H, d.cfg.ScaleStep, d.maxLevels())
		if len(sizes) == 0 {
			return nil, noop, fmt.Errorf("core: frame %dx%d smaller than detection window", frame.W, frame.H)
		}
		// Shed levels before doing any work: in image-pyramid mode both the
		// resize and the HOG extraction of a skipped level are saved.
		sizes = sizes[d.skipFinest(len(sizes)):]
		t0 := time.Now()
		levels, err := d.extractLevels(ctx, frame, sizes)
		if err != nil {
			return nil, noop, err
		}
		d.cfg.Metrics.Observe(obs.StagePyramid, time.Since(t0))
		return levels, noop, nil

	case OctavePyramid:
		t0 := time.Now()
		levels, release, err := d.octaveLevels(ctx, frame)
		if err != nil {
			return nil, noop, err
		}
		d.cfg.Metrics.Observe(obs.StagePyramid, time.Since(t0))
		return levels, release, nil

	case FeaturePyramid, FeaturePyramidChained, FeaturePyramidFixed:
		// The base extraction runs through the arena's pooled scratch: the
		// fused front end writes the luminance plane, cell grid, and base
		// feature map into reusable buffers instead of allocating them per
		// frame. The scratch-owned base map must never reach
		// featpyr.ReleaseMap (its slab belongs to the arena, not the level
		// pool); the float pyramids clone it into pooled level 0, so their
		// scratch checks back in right after construction, while the fixed
		// pyramid scans it directly as level 0 and holds the scratch until
		// release.
		s := d.arena.get()
		s.Metrics = d.cfg.Metrics // cells/normalize stage timings; cleared on put
		base, err := hog.ComputeInto(frame, d.cfg.HOG, s, d.cfg.workers())
		if err != nil {
			d.arena.put(s)
			return nil, noop, err
		}
		if err := ctx.Err(); err != nil {
			d.arena.put(s)
			return nil, noop, err
		}
		// The arena may hand the scratch to another frame once it is
		// checked in; snapshot the base grid size for the scale ratios
		// below instead of re-reading the (then recycled) map.
		baseBX, baseBY := base.BlocksX, base.BlocksY
		pt0 := time.Now()
		var levels []featpyr.Level
		release := noop
		switch d.cfg.Mode {
		case FeaturePyramid, FeaturePyramidChained:
			build := featpyr.BuildCtx
			if d.cfg.Mode == FeaturePyramidChained {
				build = featpyr.BuildChainedCtx
			}
			p, err := build(ctx, base, d.cfg.ScaleStep, wbx, wby, d.maxLevels(), d.cfg.Scale)
			d.arena.put(s)
			if err != nil {
				return nil, noop, err
			}
			levels, release = p.Levels, p.Release
		case FeaturePyramidFixed:
			if base.BlocksX < wbx || base.BlocksY < wby {
				d.arena.put(s)
				return nil, noop, fmt.Errorf("core: frame %dx%d smaller than detection window", frame.W, frame.H)
			}
			scaler := d.cfg.Fixed
			if scaler == nil {
				scaler = featpyr.NewFixedScaler()
			}
			levels = []featpyr.Level{{Scale: 1, Map: base}}
			prev := base
			for i := 1; d.cfg.MaxScales == 0 || i < d.cfg.MaxScales; i++ {
				// Termination is decided on the target grid before scaling
				// (same rounding as ScaleMapBy): a level too small for the
				// window ends the pyramid, while a scaler failure on a
				// viable level is a real error and is returned, not
				// swallowed as silent truncation.
				outBX := int(math.Round(float64(prev.BlocksX) / d.cfg.ScaleStep))
				outBY := int(math.Round(float64(prev.BlocksY) / d.cfg.ScaleStep))
				if outBX < wbx || outBY < wby {
					break
				}
				if err := ctx.Err(); err != nil {
					for j := 1; j < len(levels); j++ {
						featpyr.ReleaseMap(levels[j].Map)
					}
					d.arena.put(s)
					return nil, noop, err
				}
				lt0 := time.Now()
				m, _, err := scaler.ScaleMap(prev, outBX, outBY)
				if err != nil {
					for j := 1; j < len(levels); j++ {
						featpyr.ReleaseMap(levels[j].Map)
					}
					d.arena.put(s)
					return nil, noop, fmt.Errorf("core: fixed scaler level %d: %w", i, err)
				}
				d.cfg.Metrics.ObserveLevel(time.Since(lt0))
				levels = append(levels, featpyr.Level{
					Scale: levels[i-1].Scale * d.cfg.ScaleStep,
					Map:   m,
				})
				prev = m
			}
			lv := levels
			release = func() {
				// Level 0 is the scratch-owned base: it returns to the
				// arena, not the featpyr pool.
				for i := 1; i < len(lv); i++ {
					featpyr.ReleaseMap(lv[i].Map)
				}
				d.arena.put(s)
			}
		}
		d.cfg.Metrics.Observe(obs.StagePyramid, time.Since(pt0))
		// Feature pyramids derive every coarser level from the base map, so
		// shedding only skips the scan (which dominates); skipped level maps
		// go straight back to the scratch pool — except a scratch-owned base,
		// whose storage the release function returns to the arena instead.
		// Absolute indices are kept so LevelProbe still addresses the
		// original scale ladder.
		skip := d.skipFinest(len(levels))
		out := make([]pyrLevel, 0, len(levels)-skip)
		for i, l := range levels {
			if i < skip {
				if l.Map != base {
					featpyr.ReleaseMap(l.Map)
				}
				continue
			}
			// Effective per-axis scale of this level from the block-grid
			// ratio (grids are rounded per level, like image pyramid
			// sizes, and independently per axis).
			out = append(out, pyrLevel{
				fm:      l.Map,
				sx:      float64(baseBX) / float64(l.Map.BlocksX),
				sy:      float64(baseBY) / float64(l.Map.BlocksY),
				index:   i,
				normCap: d.levelNormCap(i),
			})
		}
		return out, release, nil
	}
	return nil, noop, fmt.Errorf("core: unknown pyramid mode %v", d.cfg.Mode)
}

// extractLevels resizes the frame to each of sizes and extracts its HOG map.
// Resize + HOG extraction dominates image-pyramid cost, so the levels run
// through a bounded worker pool. Each worker recovers its own panics so a
// poison frame (e.g. a truncated pixel buffer) surfaces as an error from
// DetectRawCtx instead of killing the process.
//
// The whole per-level resize+extract fan-out books under StagePyramid: the
// parallel workers compute HOG through pooled scratches that cannot share
// the frame's single-threaded stage recorder, so image-pyramid and octave
// modes do not split out hog_cells / hog_norm the way the feature modes do.
func (d *Detector) extractLevels(ctx context.Context, frame *imgproc.Gray, sizes []levelSize) ([]pyrLevel, error) {
	levels := make([]pyrLevel, len(sizes))
	errs := make([]error, len(sizes))
	sem := make(chan struct{}, d.cfg.workers())
	var wg sync.WaitGroup
	for i, s := range sizes {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, s levelSize) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("core: level %d: panic during extraction: %v", s.index, r)
				}
			}()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			img := imgproc.Resize(frame, s.w, s.h, d.cfg.Interp)
			fm, err := hog.Compute(img, d.cfg.HOG)
			if err != nil {
				errs[i] = fmt.Errorf("core: level %d: %w", s.index, err)
				return
			}
			// The exact per-axis scale of this level (sizes are rounded per
			// level, separately in X and Y).
			levels[i] = pyrLevel{
				fm:      fm,
				sx:      float64(frame.W) / float64(img.W),
				sy:      float64(frame.H) / float64(img.H),
				index:   s.index,
				normCap: d.levelNormCap(s.index),
			}
		}(i, s)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return levels, nil
}

// octaveLevels builds the OctavePyramid levels. The real octaves (frame
// scales 2^k while the window fits) come from extractLevels; level i at
// scale ScaleStep^i resamples the nearest octave at or below that scale by
// the intra-octave factor rel in [1, 2) through featpyr.ScaleMapRatio, so
// Scale.Lambda is the power-law correction. SkipFinest only skips the scan
// of the finest levels; their maps are recycled with the rest on release.
func (d *Detector) octaveLevels(ctx context.Context, frame *imgproc.Gray) ([]pyrLevel, func(), error) {
	sizes := d.pyramidSizes(frame.W, frame.H, 2, 0)
	if len(sizes) == 0 {
		return nil, nil, fmt.Errorf("core: frame %dx%d smaller than detection window", frame.W, frame.H)
	}
	octaves, err := d.extractLevels(ctx, frame, sizes)
	if err != nil {
		return nil, nil, err
	}
	wbx, wby := d.cfg.windowBlocks()
	var resampled []*hog.FeatureMap
	release := func() {
		for _, fm := range resampled {
			featpyr.ReleaseMap(fm)
		}
	}
	var levels []pyrLevel
	for i := 0; d.cfg.MaxScales <= 0 || i < d.cfg.MaxScales; i++ {
		scale := math.Pow(d.cfg.ScaleStep, float64(i))
		base := octaves[0]
		for _, o := range octaves {
			if math.Ldexp(1, o.index) <= scale {
				base = o
			}
		}
		rel := scale / math.Ldexp(1, base.index)
		outBX := int(math.Round(float64(base.fm.BlocksX) / rel))
		outBY := int(math.Round(float64(base.fm.BlocksY) / rel))
		if outBX < wbx || outBY < wby {
			break
		}
		fm := base.fm
		if rel != 1 {
			if err := ctx.Err(); err != nil {
				release()
				return nil, nil, err
			}
			if fm, err = featpyr.ScaleMapRatio(base.fm, outBX, outBY, rel, rel, d.cfg.Scale); err != nil {
				release()
				return nil, nil, err
			}
			resampled = append(resampled, fm)
		}
		// Effective per-axis frame scale: the octave's scale times the
		// intra-octave block-grid ratio (both rounded per axis).
		levels = append(levels, pyrLevel{
			fm:      fm,
			sx:      base.sx * float64(base.fm.BlocksX) / float64(fm.BlocksX),
			sy:      base.sy * float64(base.fm.BlocksY) / float64(fm.BlocksY),
			index:   i,
			normCap: d.levelNormCap(i),
		})
	}
	return levels[d.skipFinest(len(levels)):], release, nil
}

// firstError returns the most informative error of a per-level slice: the
// first non-cancellation error if any (a real failure should not be masked
// by the cancellations it triggered in sibling workers), else the first
// error.
func firstError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if err != context.Canceled && err != context.DeadlineExceeded {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// scanSpans slides the detection window over block rows [row0, row1) of
// one pyramid level. It is the package's only window loop: DetectRaw and
// ScoreMaps differ in the sink alone. With sm nil every window scoring above
// Threshold is appended to out as a detection in frame pixels (l.sx and
// l.sy map level pixels back per axis); otherwise each scored anchor's
// value is written into sm and out is returned as is. Windows are scored zero-copy
// against the feature map. Cancellation is checked once per window row, so
// an expired ctx stops a scan within one row; the caller discards partial
// output on error, keeping results deterministic.
//
// The kernel is fixed per level: the staged kernel when a cascade plan
// applies, else the dense one. Exact mode needs the level's block-norm
// bound, so a level without one (l.normCap == 0) scans dense. Under the
// cascade a score-map cell of a pruned anchor holds the cascade's upper
// bound on its score (+ bias), which is <= Threshold by construction of the
// rejection test: thresholding a cascade score map selects the same anchors
// as thresholding a dense one, and accepted anchors hold their exact,
// bit-identical score. The staged path keeps the zero-allocation property:
// the per-row dot scratch is a stack array (windows are at most
// maxStackRows block rows tall in every shipped geometry; taller ones fall
// back to one allocation per shard, not per window) and cascade counters
// accumulate in a stack tally folded into the shared registry once per
// call.
//
// A region-restricted level (l.spans non-nil) scans only its anchor spans;
// the dense case is the degenerate single full-width span, built on the
// stack, so the unrestricted path pays one extra bounds test per row and no
// allocation. Spans are non-overlapping and bx0-sorted, so restricted output
// stays in raster order — the exact subsequence a dense scan would emit for
// those anchors.
func (d *Detector) scanSpans(ctx context.Context, l pyrLevel, row0, row1 int, sm *ScoreMap, out []eval.Detection) ([]eval.Detection, error) {
	wbx, wby := d.cfg.windowBlocks()
	cell := d.cfg.HOG.CellSize
	w, fm := d.model.W, l.fm
	nx, ny := d.anchors(l)
	fullSpan := [1]anchorSpan{{bx0: 0, bx1: nx, by0: 0, by1: ny}}
	spans := l.spans
	if spans == nil {
		spans = fullSpan[:]
	}
	plan := d.plan
	if plan != nil && d.cfg.Cascade == CascadeExact && l.normCap <= 0 {
		plan = nil // no norm bound: exact pruning impossible, scan dense
	}
	// The staged kernel tests the raw (bias-free) score against the
	// bias-adjusted threshold: score+B > Threshold <=> score > Threshold-B.
	thr := d.cfg.Threshold - d.model.B
	const maxStackRows = 64
	var rowBuf [maxStackRows]float64
	rowDots := rowBuf[:]
	if plan != nil && wby > maxStackRows {
		rowDots = make([]float64, wby)
	}
	var tally cascadeTally
	defer tally.fold(d.cfg.Metrics.Metrics(), wbx)
	for by := row0; by < row1; by++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		for _, sp := range spans {
			if by < sp.by0 || by >= sp.by1 {
				continue
			}
			for bx := sp.bx0; bx < sp.bx1; bx++ {
				var score float64
				if plan == nil {
					s, ok := fm.ScoreWindow(w, bx, by, wbx, wby)
					if !ok {
						continue
					}
					score = s
				} else {
					s, rowsEval, accepted, ok := fm.ScoreWindowStaged(w, bx, by, wbx, wby, plan, thr, l.normCap, rowDots)
					if !ok {
						continue
					}
					tally.windows++
					tally.rows += uint64(rowsEval)
					if accepted {
						tally.accepted++
					} else {
						tally.reject(rowsEval)
						if sm == nil {
							continue // pruned: provably not a detection
						}
					}
					score = s
				}
				score += d.model.B
				if sm != nil {
					sm.Scores[by*sm.W+bx] = score
				} else if score > d.cfg.Threshold {
					// Window anchor in level pixels, then back to frame pixels.
					box := geom.XYWH(bx*cell, by*cell, d.cfg.WindowW, d.cfg.WindowH).ScaleXY(l.sx, l.sy)
					out = append(out, eval.Detection{Box: box, Score: score})
				}
			}
		}
	}
	return out, nil
}

// rowShard is one unit of scan work: a contiguous run of window rows of one
// level, and, on the worker pool, the detections the scan found there in
// raster order.
type rowShard struct {
	level      int
	row0, row1 int
	out        []eval.Detection
}

// anchors returns a level's window-anchor grid, nx by ny windows, or 0 by 0
// when the window does not fit.
func (d *Detector) anchors(l pyrLevel) (nx, ny int) {
	wbx, wby := d.cfg.windowBlocks()
	if l.fm.BlocksX < wbx || l.fm.BlocksY < wby {
		return 0, 0
	}
	return l.fm.BlocksX - wbx + 1, l.fm.BlocksY - wby + 1
}

// shardLevels splits each level's window rows into up to `workers`
// contiguous shards, in (level, row) order. Levels with fewer rows than
// workers yield fewer shards; a level the window does not fit yields none.
func (d *Detector) shardLevels(levels []pyrLevel, workers int) []rowShard {
	n := 0
	for _, l := range levels {
		_, rows := d.anchors(l)
		n += min(rows, workers) // an upper bound on the level's shard count
	}
	shards := make([]rowShard, 0, n)
	for level, l := range levels {
		_, rows := d.anchors(l)
		step := (rows + workers - 1) / workers
		for r := 0; r < rows; r += step {
			shards = append(shards, rowShard{level: level, row0: r, row1: min(r+step, rows)})
		}
	}
	return shards
}

// scanShard scans one shard into its sink: its level's score map when maps
// is non-nil, else detections appended to out.
func (d *Detector) scanShard(ctx context.Context, levels []pyrLevel, maps []*ScoreMap, s rowShard, out []eval.Detection) ([]eval.Detection, error) {
	var sm *ScoreMap
	if maps != nil {
		sm = maps[s.level]
	}
	return d.scanSpans(ctx, levels[s.level], s.row0, s.row1, sm, out)
}

// runShards scans the shards on a pool of Workers goroutines and returns
// their detections in shard order. One worker scans them inline, with no
// goroutine or closure, appending to a single slice. scanSpans observes ctx
// itself for sub-shard cancellation granularity. Each worker goroutine
// recovers its own panics — a poison shard (corrupt feature data) is
// reported as an error instead of crashing the process — and cancellation
// stops job dispatch between shards. On a non-nil error the output is
// incomplete and must be discarded.
func (d *Detector) runShards(ctx context.Context, levels []pyrLevel, maps []*ScoreMap, shards []rowShard) ([]eval.Detection, error) {
	workers := min(d.cfg.workers(), len(shards))
	var out []eval.Detection
	if workers <= 1 {
		for _, s := range shards {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var err error
			if out, err = d.scanShard(ctx, levels, maps, s, out); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	jobs := make(chan int)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("core: scan worker panic: %v", r)
					// Keep draining so the dispatcher never blocks on a
					// dead worker pool.
					for range jobs {
					}
				}
			}()
			for i := range jobs {
				if errs[w] != nil || ctx.Err() != nil {
					continue // drain without scanning
				}
				var err error
				if shards[i].out, err = d.scanShard(ctx, levels, maps, shards[i], nil); err != nil {
					errs[w] = err
				}
			}
		}(w)
	}
	for i := range shards {
		select {
		case jobs <- i:
		case <-ctx.Done():
			close(jobs)
			wg.Wait()
			return nil, ctx.Err()
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := firstError(errs); err != nil {
		return nil, err
	}
	for _, s := range shards {
		out = append(out, s.out...)
	}
	return out, nil
}

// probeLevels runs the configured LevelProbe over the levels about to be
// scanned, in finest-to-coarsest order. A probe error aborts the frame.
func (d *Detector) probeLevels(ctx context.Context, levels []pyrLevel) error {
	probe := d.cfg.LevelProbe
	if probe == nil {
		return nil
	}
	for _, l := range levels {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := probe(ctx, l.index); err != nil {
			return fmt.Errorf("core: level %d probe: %w", l.index, err)
		}
	}
	return nil
}

// scanFrame is the frame pipeline DetectRaw and ScoreMaps share: build the
// pyramid, restrict it to the active regions, probe it, and scan it with
// every level sharded across window rows over the worker pool. With
// wantMaps it returns one ScoreMap per level (nil where the window does not
// fit; anchors outside an active region set read -Inf), else the
// thresholded detections. Shard outputs are concatenated in (level, row)
// order, so the detections are exactly the raster-order slice a serial scan
// produces — byte-identical for every worker count. On cancellation or a
// worker failure partial output is discarded and the error returned.
func (d *Detector) scanFrame(ctx context.Context, frame *imgproc.Gray, wantMaps bool) ([]eval.Detection, []*ScoreMap, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	d.cfg.Metrics.BeginFrame()
	levels, release, err := d.buildLevels(ctx, frame)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	d.applyRegions(levels)
	t0 := time.Now()
	if err := d.probeLevels(ctx, levels); err != nil {
		return nil, nil, err
	}
	var maps []*ScoreMap
	if wantMaps {
		maps = d.newScoreMaps(levels)
	}
	out, err := d.runShards(ctx, levels, maps, d.shardLevels(levels, d.cfg.workers()))
	if err != nil {
		return nil, nil, err
	}
	d.cfg.Metrics.Observe(obs.StageScan, time.Since(t0))
	return out, maps, nil
}
