// Command perfbench is the repository's benchmark: it drives the detection
// stack through its public packages on four seeded workloads, checks every
// output against a reference, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on the last line of
// standard output. See README.md for the workloads and the metric contract.
//
//	bash perfbench/run.sh --workload hd2-dense --seed 1 --seconds 16 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Set at build time by run.sh (-ldflags -X): the git commit when the
// checkout is a repository, and a digest of the Go sources in any case.
var (
	commit       = "unknown"
	sourceDigest = "unknown"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // build outputs, results and span dumps
	digests  string // committed reference digests
	update   bool   // rewrite the digest of (workload, seed)
	models   modelFiles
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64 // end-to-end, or per-layer when traced
	notes             []string           // extra report lines
	extra             map[string]any     // extra fields for the results file
}

// workload is one benchmark workload: run prepares its inputs, sets the
// system up, and measures it (with spans when the tracer is non-nil).
type workload struct {
	name string
	run  func(*options, *tracer) (*outcome, error)
}

var workloads = []workload{
	{"hd2-dense", runHD2Dense},
	{"hd-roi-clip", runHDROIClip},
	{"vga-multiclass", runVGAMulticlass},
	{"serve-crops", runServeCrops},
}

// endToEnd lists the end-to-end metrics (measured with tracing off) and
// their units; every workload reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"frames_per_cpu_s", "1/s"},
	{"frame_cpu_ms_p50", "ms"},
	{"frame_cpu_ms_p90", "ms"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics of the traced run and their units.
// Every workload reports all of them; a layer the workload does not reach
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"hog.cells_ms", "ms"},
	{"hog.norm_ms", "ms"},
	{"hog.cells_calls_per_frame", "count"},
	{"featpyr.build_ms", "ms"},
	{"featpyr.levels", "count"},
	{"core.scan_ms", "ms"},
	{"core.windows", "count"},
	{"core.scan_ns_per_window", "ns"},
	{"core.class_ms.pedestrian", "ms"},
	{"core.class_ms.vehicle", "ms"},
	{"core.nms_ms", "ms"},
	{"core.nms_keep_ratio", "ratio"},
	{"core.arena_miss_ratio", "ratio"},
	{"core.allocs_per_frame", "count"},
	{"core.cascade_blocks_per_window", "count"},
	{"core.cascade_reject_ratio", "ratio"},
	{"roi.plan_us", "us"},
	{"roi.regions_per_frame", "count"},
	{"roi.full_frame_share", "ratio"},
	{"roi.window_share", "ratio"},
	{"track.update_us", "us"},
	{"track.live_tracks", "count"},
	{"imgproc.decode_ms_p50", "ms"},
	{"serve.roundtrip_ms_p50", "ms"},
	{"serve.shed", "count"},
	{"serve.breaker_rejected", "count"},
	{"serve.admitted_share", "ratio"},
	{"rt.queue_wait_ms_p50", "ms"},
	{"rt.queue_wait_ms_p99", "ms"},
	{"rt.frame_ms_p50", "ms"},
	{"rt.frames_dropped", "count"},
	{"rt.degraded_frames", "count"},
	{"gateway.overhead_ms_p50", "ms"},
	{"gateway.attempts_per_request", "count"},
	{"gateway.hedges_fired", "count"},
	{"gateway.hedge_wins", "count"},
	{"gateway.retries", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"bench.traced_op_ms_p50", "ms"},
	{"bench.stage_share_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var seconds float64
	var traceFlag int
	var trainDir string
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	flag.Float64Var(&seconds, "seconds", 16, "measurement time of one run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for models, results and span dumps")
	flag.StringVar(&o.digests, "digests", filepath.Join("perfbench", "testdata"), "directory of the committed reference digests")
	flag.BoolVar(&o.update, "update-digest", false, "rewrite the committed digest of this workload and seed from the reference configuration")
	flag.StringVar(&trainDir, "train-models", "", "train the benchmark's models into this directory and exit (run as a child process)")
	flag.Parse()
	if trainDir != "" {
		if err := trainModels(trainDir); err != nil {
			fatalf("train models: %v", err)
		}
		return
	}
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if seconds < 0 {
		fatalf("--seconds must not be negative")
	}
	o.trace = traceFlag == 1
	o.seconds = time.Duration(seconds * float64(time.Second))

	var names []string
	if o.workload == "all" {
		names = workloadNames()
	} else {
		names = []string{o.workload}
	}
	for _, n := range names {
		if workloadByName(n) == nil {
			fatalf("unknown workload %q (want one of %s, or all)", n, strings.Join(workloadNames(), ", "))
		}
	}

	models, err := prepareModels(o.out)
	if err != nil {
		fatalf("prepare models: %v", err)
	}
	o.models = models
	var lines []string
	for _, n := range names {
		o.workload = n
		line, err := runOne(&o)
		if err != nil {
			fatalf("%s: %v", n, err)
		}
		lines = append(lines, line)
	}
	if len(lines) > 1 {
		fmt.Println()
		for i, l := range lines {
			fmt.Printf("%s %s\n", names[i], l)
		}
	}
}

func runOne(o *options) (string, error) {
	w := workloadByName(o.workload)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	meta := runMetadata(o)
	fmt.Printf("== perfbench %s seed %d, %s, trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	oc, err := w.run(o, tr)
	if err != nil {
		return "", err
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	res := result{
		Correct:   oc.failed == 0 && oc.attempted > 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   make(map[string]metric, len(want)),
	}
	for _, m := range want {
		// A traced run reports a layer the workload does not reach as 0.
		v, ok := oc.metrics[m.name]
		if !ok && !o.trace {
			return "", fmt.Errorf("metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
		fmt.Printf("  %-32s %14.6g %s\n", m.name, v, m.unit)
	}
	fmt.Printf("  %-32s %14.6g (failed %d of %d attempted)\n", "error_rate", ratio(float64(oc.failed), float64(oc.attempted)), oc.failed, oc.attempted)
	for _, n := range oc.notes {
		fmt.Println("  " + n)
	}
	metaJSON, _ := json.Marshal(meta) // plain map of strings and numbers
	fmt.Printf("  meta %s\n", metaJSON)

	stem := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, b2i(o.trace))
	if err := tr.write(filepath.Join(o.out, "traces", stem+".jsonl")); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	file := map[string]any{"meta": meta, "result": res, "extra": oc.extra, "notes": oc.notes}
	if err := writeJSON(filepath.Join(o.out, "results", stem+".json"), file); err != nil {
		return "", fmt.Errorf("write result: %w", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	fmt.Println(string(line))
	return string(line), nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), extra: make(map[string]any)}
}

// runMetadata records what makes results comparable: the host, the Go
// build, the scheduler width and the inputs.
func runMetadata(o *options) map[string]any {
	goamd64 := "unset"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds.Seconds(),
		"trace":         o.trace,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goarch":        runtime.GOARCH,
		"goamd64":       goamd64,
		"commit":        commit,
		"source_digest": sourceDigest,
		"time_utc":      time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// modelFiles are the serialized models every workload loads at set-up.
type modelFiles struct{ pedestrian, vehicle string }

// prepareModels trains the models in a child process, so that training's
// memory does not count in this process's peak RSS, and returns their
// paths. Training is deterministic, so the models of one source tree are
// kept under its digest and later runs of the same build reuse them; the
// child writes to a scratch directory that is renamed into place, so an
// interrupted run never leaves a half-written model behind.
func prepareModels(out string) (modelFiles, error) {
	root := filepath.Join(out, "models")
	dir := filepath.Join(root, sourceDigest)
	files := modelFiles{
		pedestrian: filepath.Join(dir, "pedestrian.model"),
		vehicle:    filepath.Join(dir, "vehicle.model"),
	}
	if _, err := os.Stat(dir); err == nil && sourceDigest != "unknown" {
		return files, nil
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return modelFiles{}, err
	}
	tmp, err := os.MkdirTemp(root, "train-")
	if err != nil {
		return modelFiles{}, err
	}
	defer os.RemoveAll(tmp) // gone after the rename; cleans up on failure
	exe, err := os.Executable()
	if err != nil {
		return modelFiles{}, err
	}
	cmd := exec.Command(exe, "-train-models", tmp)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return modelFiles{}, fmt.Errorf("%v: %s", err, stderr.String())
	}
	if err := os.RemoveAll(dir); err != nil {
		return modelFiles{}, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return modelFiles{}, err
	}
	return files, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
