package core

import (
	"fmt"

	"repro/internal/featpyr"
	"repro/internal/hog"
	"repro/internal/obs"
	"repro/internal/svm"
)

// CascadeMode selects the early-rejection strategy of the window scan.
type CascadeMode int

const (
	// CascadeOff scans every window dense (the pre-cascade behaviour).
	CascadeOff CascadeMode = iota
	// CascadeExact evaluates windows stage by stage and rejects on the
	// Cauchy-Schwarz bound: detections (boxes and scores) are bit-identical
	// to CascadeOff at every worker count, only faster. Levels without a
	// block-norm bound (float and octave pyramids with a non-zero Lambda and
	// no renormalization) fall back to the dense scan automatically.
	CascadeExact
	// CascadeCalibrated additionally rejects below per-stage floors fitted
	// on training positives (soft cascade, pdtrain -cascade-calibrate):
	// faster than exact with a measured, reported miss bound. Requires a
	// model carrying a calibration with one floor per window block row.
	CascadeCalibrated
)

// String implements fmt.Stringer.
func (m CascadeMode) String() string {
	switch m {
	case CascadeOff:
		return "off"
	case CascadeExact:
		return "exact"
	case CascadeCalibrated:
		return "calibrated"
	}
	return fmt.Sprintf("CascadeMode(%d)", int(m))
}

// buildStagePlan derives the kernel-side stage schedule for the detector's
// model and window geometry, validating the mode's requirements. Returns
// nil for CascadeOff.
func buildStagePlan(model *svm.Model, cfg Config) (*hog.StagePlan, error) {
	if cfg.Cascade == CascadeOff {
		return nil, nil
	}
	wbx, wby := cfg.windowBlocks()
	casc, err := svm.NewCascade(model, wbx, wby, cfg.HOG.BlockLen())
	if err != nil {
		return nil, err
	}
	plan := &hog.StagePlan{
		Order:  casc.Order,
		Suffix: casc.Suffix,
		Slack:  casc.Slack,
	}
	switch cfg.Cascade {
	case CascadeExact:
	case CascadeCalibrated:
		if model.Calib == nil {
			return nil, fmt.Errorf("core: calibrated cascade needs a model with a cascade calibration (pdtrain -cascade-calibrate)")
		}
		if err := casc.AttachCalibration(model.Calib); err != nil {
			return nil, err
		}
		plan.Calib = casc.Calib
	default:
		return nil, fmt.Errorf("core: unknown cascade mode %v", cfg.Cascade)
	}
	return plan, nil
}

// levelNormCap returns the upper bound on the L2 norm of any block vector
// of a pyramid level, the scale factor of the cascade's Cauchy-Schwarz
// suffix bounds. A return of 0 means "no bound available": exact mode
// scans such levels dense (calibrated floors still apply, they do not
// depend on the bound).
//
//   - Image-pyramid levels are directly normalized maps: every scheme
//     (L2, L2-Hys, L1-sqrt) yields block norm < 1, so the cap is 1.
//   - Float feature-pyramid levels (direct, chained, or resampled from an
//     octave) are convex bilinear or nearest-neighbour combinations of
//     normalized blocks, which cannot exceed the largest input norm: cap 1.
//     Octave levels themselves are directly normalized maps. Renormalize
//     restores norms < 1 explicitly. A non-zero Lambda without
//     renormalization multiplies features by s^-Lambda, which exceeds 1 for
//     Lambda < 0 and compounds per chained level — no cheap tight bound, so
//     no cap (0).
//   - Fixed-point levels compound quantized-weight excess and rounding per
//     chained scale; the scaler knows its own error model
//     (FixedScaler.BlockNormCap).
func (d *Detector) levelNormCap(levelIndex int) float64 {
	switch d.cfg.Mode {
	case ImagePyramid:
		return 1
	case FeaturePyramid, FeaturePyramidChained, OctavePyramid:
		if d.cfg.Scale.Lambda != 0 && !d.cfg.Scale.Renormalize {
			return 0
		}
		return 1
	case FeaturePyramidFixed:
		scaler := d.cfg.Fixed
		if scaler == nil {
			scaler = featpyr.NewFixedScaler()
		}
		return scaler.BlockNormCap(levelIndex, d.cfg.HOG.BlockLen())
	}
	return 0
}

// cascadeTally is the per-shard cascade counter scratch: the scan loop
// bumps plain stack integers and folds them into the shared atomic
// registry once per shard, so the per-window path has no atomic traffic.
type cascadeTally struct {
	windows, accepted, rows uint64
	stageRejects            [obs.CascadeStages]uint64
}

// fold adds the tally to the registry (blocks = rows * window block width).
func (t *cascadeTally) fold(m *obs.Metrics, wbx int) {
	if m == nil || t.windows == 0 {
		return
	}
	m.CascadeWindows.Add(t.windows)
	m.CascadeAccepted.Add(t.accepted)
	m.CascadeBlocks.Add(t.rows * uint64(wbx))
	for i := range t.stageRejects {
		if t.stageRejects[i] != 0 {
			m.CascadeStageRejects[i].Add(t.stageRejects[i])
		}
	}
}

// reject records an early rejection after rowsEval stages.
func (t *cascadeTally) reject(rowsEval int) {
	k := rowsEval - 1
	if k >= obs.CascadeStages {
		k = obs.CascadeStages - 1
	}
	if k >= 0 {
		t.stageRejects[k]++
	}
}
