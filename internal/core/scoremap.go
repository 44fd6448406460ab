package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/imgproc"
)

// ScoreMap is the dense grid of SVM decision values of one pyramid level:
// entry (x, y) is the score of the window anchored at block (x, y). It is
// the intermediate the sliding-window detector thresholds, exposed for
// heat-map inspection and custom post-processing.
type ScoreMap struct {
	// Scale and ScaleY map level pixel coordinates back to the frame
	// horizontally and vertically; they differ in general because level
	// grids are rounded to integers independently per axis.
	Scale  float64
	ScaleY float64
	W, H   int // anchor grid dimensions
	Scores []float64
}

// At returns the score of anchor (x, y).
func (sm *ScoreMap) At(x, y int) float64 { return sm.Scores[y*sm.W+x] }

// Max returns the peak score and its anchor.
func (sm *ScoreMap) Max() (x, y int, score float64) {
	score = math.Inf(-1)
	for i, v := range sm.Scores {
		if v > score {
			score = v
			x, y = i%sm.W, i/sm.W
		}
	}
	return x, y, score
}

// ToImage renders the map as an 8-bit heat image, linearly mapping
// [min, max] to [0, 255]. A constant map renders mid-grey.
func (sm *ScoreMap) ToImage() *imgproc.Gray {
	img := imgproc.NewGray(sm.W, sm.H)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range sm.Scores {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi <= lo {
		for i := range img.Pix {
			img.Pix[i] = 128
		}
		return img
	}
	for i, v := range sm.Scores {
		img.Pix[i] = uint8(255 * (v - lo) / (hi - lo))
	}
	return img
}

// ScoreMaps computes the dense decision values of every pyramid level for
// the frame (no thresholding, no NMS). Levels come from the same builder as
// DetectRaw, so the maps correspond exactly to the windows the configured
// Mode scans — every mode gets heat maps of its own pyramid. Scoring is
// zero-copy and sharded across window rows over the configured worker pool.
// An active Config.Regions set restricts scoring to the region anchor spans
// exactly like DetectRaw; anchors outside the regions read as -Inf. With a
// cascade enabled the maps stay thresholding-equivalent rather than
// value-identical (see scanSpans): heat maps flatten in the pruned, deeply
// negative regions.
func (d *Detector) ScoreMaps(frame *imgproc.Gray) ([]*ScoreMap, error) {
	return d.ScoreMapsCtx(context.Background(), frame)
}

// ScoreMapsCtx is ScoreMaps with cooperative cancellation (see DetectCtx).
func (d *Detector) ScoreMapsCtx(ctx context.Context, frame *imgproc.Gray) ([]*ScoreMap, error) {
	_, maps, err := d.scanFrame(ctx, frame, true)
	if err != nil {
		return nil, err
	}
	out := maps[:0]
	for _, sm := range maps {
		if sm != nil {
			out = append(out, sm)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: frame %dx%d smaller than detection window", frame.W, frame.H)
	}
	return out, nil
}

// newScoreMaps allocates the score map of every level the window fits
// (nil for the others). Anchors of a region-restricted level start at -Inf:
// they are never evaluated, so thresholding a restricted map selects
// exactly the restricted detections.
func (d *Detector) newScoreMaps(levels []pyrLevel) []*ScoreMap {
	maps := make([]*ScoreMap, len(levels))
	for i, l := range levels {
		nx, ny := d.anchors(l)
		if ny < 1 {
			continue
		}
		sm := &ScoreMap{
			Scale:  l.sx,
			ScaleY: l.sy,
			W:      nx,
			H:      ny,
			Scores: make([]float64, nx*ny),
		}
		if l.spans != nil {
			for j := range sm.Scores {
				sm.Scores[j] = math.Inf(-1)
			}
		}
		maps[i] = sm
	}
	return maps
}
