package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/imgproc"
	"repro/internal/roi"
)

// Training is benchmark preparation: the models are fixed (their seeds do
// not depend on the workload seed), trained deterministically, written with
// svm.Model.Save, and read back at set-up with svm.Load as pdserve does.
const (
	pedTrainSeed = 1001
	vehTrainSeed = 1003
)

func trainModels(dir string) error {
	g := dataset.New(pedTrainSeed)
	ped, err := g.RenderAt(g.NewSpecSet(150, 450), 1.0)
	if err != nil {
		return err
	}
	pedDet, err := core.Train(ped, pedestrianConfig(), core.DefaultTrainOptions())
	if err != nil {
		return fmt.Errorf("pedestrian: %w", err)
	}
	g = dataset.New(vehTrainSeed)
	veh, err := g.RenderVehicleAt(g.NewVehicleSpecSet(150, 450), 1.0)
	if err != nil {
		return err
	}
	vehDet, err := core.Train(veh, vehicleConfig(), core.DefaultTrainOptions())
	if err != nil {
		return fmt.Errorf("vehicle: %w", err)
	}
	if err := pedDet.Model().Save(filepath.Join(dir, "pedestrian.model")); err != nil {
		return err
	}
	return vehDet.Model().Save(filepath.Join(dir, "vehicle.model"))
}

// pedestrianConfig is the 64x128 detector every workload starts from: the
// paper's feature pyramid, all scales, dense scan.
func pedestrianConfig() core.Config {
	return core.DefaultConfig()
}

// vehicleConfig is the 64x64 vehicle class of vga-multiclass; it shares the
// pedestrian's hog.Config.
func vehicleConfig() core.Config {
	c := core.DefaultConfig()
	c.WindowW = dataset.VehicleWindowW
	c.WindowH = dataset.VehicleWindowH
	return c
}

// Workload inputs. Each comes from internal/dataset seeded by the workload
// seed (offset per workload so two workloads never share a clip). A
// MakeSequence clip keeps one background, and the background decides most
// of a frame's false alarms, so the 1080p workloads join several short
// clips: a seed then averages over several streets instead of one.
const (
	hdW, hdH       = 1920, 1080
	hd2Clips       = 4
	hd2ClipFrames  = 2
	roiClips       = 6
	roiClipFrames  = roi.DefaultFullEvery // one scheduler cadence cycle per clip
	vgaScenes      = 6
	cropW, cropH   = 96, 160 // INRIA's test-crop size
	crops          = 32      // half with a pedestrian; each request decodes and scans its crop afresh
	streams        = 8       // cameras; gateway affinity pins even and odd IDs to different replicas
	hd2SeedOffset  = 0
	roiSeedOffset  = 1 << 20
	vgaSeedOffset  = 2 << 20
	cropSeedOffset = 3 << 20
)

// clips renders n MakeSequence clips of the given configuration, each from
// its own generator seed derived from seed, and returns their frames in
// order.
func clips(seed int64, n int, cfg dataset.SequenceConfig) ([]*imgproc.Gray, error) {
	var frames []*imgproc.Gray
	for k := 0; k < n; k++ {
		seq, err := dataset.New(seed*16 + int64(k)).MakeSequence(cfg)
		if err != nil {
			return nil, err
		}
		frames = append(frames, seq.Frames...)
	}
	return frames, nil
}

// hd2Clip is the hd2-dense input: four walkers per clip whose 130-210 px
// heights put them around the two finest pyramid scales.
func hd2Clip(seed int64) ([]*imgproc.Gray, error) {
	return clips(seed+hd2SeedOffset, hd2Clips, dataset.SequenceConfig{
		W: hdW, H: hdH, Frames: hd2ClipFrames, Pedestrians: 4,
		FPS: 30, ApproachRate: 0.1, WalkSpeedPx: 40,
	})
}

// roiClip is the tracked hd-roi-clip input: clips of one scheduler cadence
// cycle each, three walkers per clip.
func roiClip(seed int64) ([]*imgproc.Gray, error) {
	return clips(seed+roiSeedOffset, roiClips, dataset.SequenceConfig{
		W: hdW, H: hdH, Frames: roiClipFrames, Pedestrians: 3,
		FPS: 30, ApproachRate: 0.1, WalkSpeedPx: 60,
	})
}

// vgaFrames renders 640x480 street scenes with pedestrians and two
// vehicles drawn in each, the way examples/multiclass composes its frame.
func vgaFrames(seed int64) ([]*imgproc.Gray, error) {
	g := dataset.New(seed + vgaSeedOffset)
	rng := rand.New(rand.NewSource(seed + vgaSeedOffset))
	out := make([]*imgproc.Gray, 0, vgaScenes)
	for i := 0; i < vgaScenes; i++ {
		sc, err := g.MakeScene(dataset.DefaultSceneConfig())
		if err != nil {
			return nil, err
		}
		for v := 0; v < 2; v++ {
			spec := g.NewSpec(false)
			vs := dataset.RandomVehicle(rng)
			spec.VehicleSpec = &vs
			spec.Hard = nil
			size := 64 + rng.Intn(65)
			img := g.Render(spec, size, size)
			imgproc.Paste(sc.Frame, img, rng.Intn(sc.Frame.W-size), sc.Frame.H/2+rng.Intn(sc.Frame.H/2-size), -1)
		}
		out = append(out, sc.Frame)
	}
	return out, nil
}

// cropSet renders the serve-crops request bodies: alternating positive and
// negative 96x160 candidate crops, PGM-encoded once.
func cropSet(seed int64) ([]*imgproc.Gray, [][]byte, error) {
	g := dataset.New(seed + cropSeedOffset)
	imgs := make([]*imgproc.Gray, crops)
	bodies := make([][]byte, crops)
	for i := range imgs {
		imgs[i] = g.Render(g.NewSpec(i%2 == 0), cropW, cropH)
		var b bytes.Buffer
		if err := imgproc.WritePGM(&b, imgs[i]); err != nil {
			return nil, nil, err
		}
		bodies[i] = b.Bytes()
	}
	return imgs, bodies, nil
}

// arrival is one request of the open-loop schedule: when it is due
// (relative to its phase start), which crop it posts, and on which stream.
type arrival struct {
	due    time.Duration
	crop   int
	stream int
}

// schedule draws a Poisson arrival process at rate requests/second over
// length (at least one arrival), seeded per (seed, phase) so every phase of
// every run with the same seed sends the same requests at the same offsets.
func schedule(seed int64, phase int, rate float64, length time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed*1009 + int64(phase)))
	var out []arrival
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= length && len(out) > 0 {
			return out
		}
		out = append(out, arrival{due: due, crop: rng.Intn(crops), stream: rng.Intn(streams)})
	}
}
