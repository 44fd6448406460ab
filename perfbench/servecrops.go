package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gateway"
	"repro/internal/imgproc"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/serve"
	"repro/internal/svm"
)

// serve-crops load shape. Each X-Stream ID is one camera sending a crop per
// 30-fps frame, the frame period that also sets the latency limit, so the
// gated reference rate is streams x 30 = 240 requests/second. On a 2-vCPU
// host that is a quarter of the measured knee (sustained_rps, median of
// seeds 1-5: about 1000), so the reference sits well below saturation.
// The search for the knee starts at twice the reference (16 cameras, about
// half the knee) and climbs by x1.5 per 1.25 s step, at least 600 requests
// a step, so each step's p99 rests on six or more tail samples. Once a
// failing rate brackets the knee, kneeBisections more steps halve the
// bracket on a log scale, from x1.5 to x1.026.
const (
	streamFPS      = 30.0
	refRate        = streams * streamFPS // requests/second
	ladderStart    = 2 * refRate
	ladderStep     = 1.5
	ladderStepLen  = 1250 * time.Millisecond
	kneeBisections = 4
	latencyLimitMS = 33.0 // one frame period at streamFPS
	// The closed-loop capacity phase takes its requests from a schedule at
	// this rate with the due times dropped: about five times the capacity
	// measured on 2 vCPUs. A host that sends them all ends the phase early;
	// the capacity, from the median request time, still holds.
	saturationDraw = 5000.0
	requestTimeout = 2 * time.Second
	// The cost loop calibrates before every costCalibEvery-th request
	// (about every 10 ms): the host's speed drifts over seconds.
	costCalibEvery = 10
	// A phase stops sending this long after its schedule ends; arrivals
	// still unsent then are dropped, with their wait until the cut-off as
	// their latency (a lower bound, and above the limit).
	phaseGrace = 500 * time.Millisecond
)

// replica is one serving stack: a supervisor with one rt pipeline behind a
// serve.Server, listening on loopback.
type replica struct {
	sup   *serve.Supervisor
	srv   *serve.Server
	hs    *http.Server
	done  chan struct{}
	url   string
	arena *core.Arena
}

func startReplica(model *svm.Model, m *obs.Metrics) (*replica, error) {
	r := &replica{arena: core.NewArena(), done: make(chan struct{})}
	factory := func(int) (*core.Detector, error) {
		cfg := pedestrianConfig()
		cfg.Workers = 1
		cfg.Arena = r.arena
		return core.NewDetector(model, cfg)
	}
	var err error
	r.sup, err = serve.NewSupervisor(factory, serve.SupervisorConfig{
		Workers: 1,
		// A deadline far above a crop's scan time keeps the rt ladder at
		// rung 0 below saturation.
		Pipeline: rt.Config{Deadline: time.Second, Metrics: m},
	})
	if err != nil {
		return nil, err
	}
	r.srv = serve.NewServer(r.sup, serve.ServerConfig{Metrics: m})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.sup.Close()
		return nil, err
	}
	r.url = "http://" + ln.Addr().String()
	r.hs = &http.Server{Handler: r.srv.Handler()}
	go func() {
		defer close(r.done)
		_ = r.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return r, nil
}

func (r *replica) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.srv.Shutdown(ctx) // drain admitted requests; a timeout only cuts it short
	_ = r.hs.Shutdown(ctx)
	<-r.done
	r.sup.Close()
}

// traceKey carries a traced request's operation and parent span through
// the gateway's context into the backends.
type traceKey struct{}

type traceCtx struct{ op, parent int }

// timedBackend wraps a gateway backend and records every attempt of a
// traced request as a serve.roundtrip span (serve.roundtrip.failed when the
// attempt lost or failed).
type timedBackend struct {
	inner gateway.Backend
	tr    *tracer
}

func (b *timedBackend) Detect(ctx context.Context, stream int, frame *imgproc.Gray) ([]eval.Detection, error) {
	tc, ok := ctx.Value(traceKey{}).(traceCtx)
	if !ok || b.tr == nil {
		return b.inner.Detect(ctx, stream, frame)
	}
	t0 := time.Now()
	dets, err := b.inner.Detect(ctx, stream, frame)
	name := "serve.roundtrip"
	if err != nil {
		name = "serve.roundtrip.failed"
	}
	b.tr.add(tc.op, tc.parent, name, t0, time.Now())
	return dets, err
}

func (b *timedBackend) Probe(ctx context.Context) error { return b.inner.Probe(ctx) }

// traceHeader names the request's operation and root span, "op/span"; the
// gateway middleware turns it into a traceCtx.
const traceHeader = "X-Bench-Trace"

func traceMiddleware(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		opS, parentS, found := strings.Cut(r.Header.Get(traceHeader), "/")
		op, err1 := strconv.Atoi(opS)
		parent, err2 := strconv.Atoi(parentS)
		if tr == nil || !found || err1 != nil || err2 != nil {
			next.ServeHTTP(w, r)
			return
		}
		id := tr.begin(op, parent, "gateway.handle", time.Now())
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceKey{}, traceCtx{op, id})))
		tr.end(id, time.Now())
	})
}

// stack is the serve-crops system: a gateway.Server on loopback fronting
// two replicas through gateway.HTTPBackend.
type stack struct {
	m        *obs.Metrics
	reps     []*replica
	backends []*timedBackend
	gw       *gateway.Gateway
	hs       *http.Server
	done     chan struct{}
	url      string
	client   *http.Client
}

func startStack(modelPath string, seed int64, tr *tracer) (*stack, error) {
	model, err := svm.Load(modelPath)
	if err != nil {
		return nil, err
	}
	st := &stack{m: obs.NewMetrics(), done: make(chan struct{})}
	var backends []gateway.Backend
	for i := 0; i < 2; i++ {
		r, err := startReplica(model, st.m)
		if err != nil {
			st.close()
			return nil, err
		}
		st.reps = append(st.reps, r)
		b := &timedBackend{inner: &gateway.HTTPBackend{Base: r.url, Client: &http.Client{Transport: &http.Transport{}}}, tr: tr}
		st.backends = append(st.backends, b)
		backends = append(backends, b)
	}
	if st.gw, err = gateway.New(backends, gateway.Config{Seed: seed*2 + 1}); err != nil {
		st.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: traceMiddleware(tr, gateway.NewServer(st.gw, gateway.ServerConfig{}).Handler())}
	go func() {
		defer close(st.done)
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	n := runtime.NumCPU()
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n}}
	return st, nil
}

func (st *stack) close() {
	if st.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = st.hs.Shutdown(ctx) // in-flight requests finish or the timeout cuts them
		cancel()
		<-st.done
	}
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	for _, b := range st.backends {
		b.inner.(*gateway.HTTPBackend).Client.CloseIdleConnections()
	}
	for _, r := range st.reps {
		r.close()
	}
}

// request is one serve-crops request as the load generator saw it; times
// are offsets from its phase start.
type request struct {
	due, sent, done time.Duration
	sentOK          bool // false: the phase ended before a sender was free
	ok              bool
	traced          bool
	op              int
	err             error
}

// latency is the request's latency from its due time: +Inf if it failed
// (a failure misses any latency limit), and for a request the phase dropped
// unsent, its wait until the cut-off.
func (r request) latency() float64 {
	switch {
	case !r.sentOK:
		return ms(r.sent - r.due)
	case !r.ok:
		return math.Inf(1)
	}
	return ms(r.done - r.due)
}

// send posts one crop and checks the answer against the reference.
func (st *stack) send(body []byte, stream int, want []det, trace string) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.url+"/detect", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Stream", strconv.Itoa(stream))
	if trace != "" {
		req.Header.Set(traceHeader, trace)
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort, for the report
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var dr serve.DetectResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	got := make([]eval.Detection, len(dr.Detections))
	for i, d := range dr.Detections {
		got[i].Box.Min.X, got[i].Box.Min.Y = d.X, d.Y
		got[i].Box.Max.X, got[i].Box.Max.Y = d.X+d.W, d.Y+d.H
		got[i].Score = d.Score
	}
	if !sameEval("pedestrian", got, want) {
		return errMismatch
	}
	return nil
}

var errMismatch = errors.New("detections differ from the reference")

// runPhase plays one open-loop schedule with nproc senders: each request
// is sent at its due time or, when every sender is busy, as soon as one
// frees up (the lateness counts in its latency). traced picks the requests
// that carry spans; a request's index in the schedule is its operation.
func (st *stack) runPhase(sched []arrival, length time.Duration, bodies [][]byte, ref [][]det,
	tr *tracer, traced func(arrival) bool) []request {
	out := make([]request, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				r := &out[i]
				r.due, r.op = a.due, i
				if d := time.Until(start.Add(a.due)); d > 0 {
					time.Sleep(d)
				}
				r.sent = time.Since(start)
				if r.sent > length+phaseGrace {
					continue
				}
				r.sentOK = true
				r.traced = tr != nil && traced(a)
				var hdr string
				var root int
				if r.traced {
					root = tr.begin(r.op, -1, "request", start.Add(a.due))
					tr.add(r.op, root, "loadgen.wait", start.Add(a.due), start.Add(r.sent))
					hdr = fmt.Sprintf("%d/%d", r.op, root)
				}
				r.err = st.send(bodies[a.crop], a.stream, ref[a.crop], hdr)
				r.ok = r.err == nil
				r.done = time.Since(start)
				if r.traced {
					tr.end(root, start.Add(r.done))
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// phaseStats summarises one phase.
type phaseStats struct {
	Rate    float64 `json:"rate_rps"`
	Sent    int     `json:"sent"`
	Unsent  int     `json:"unsent"`
	Failed  int     `json:"failed"`
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	P99     float64 `json:"p99_ms"`
	LateP99 float64 `json:"late_p99_ms"`
}

func summarise(rate float64, reqs []request) phaseStats {
	s := phaseStats{Rate: rate}
	var lat, late []float64
	for _, r := range reqs {
		lat = append(lat, r.latency())
		if !r.sentOK {
			s.Unsent++
			continue
		}
		s.Sent++
		late = append(late, ms(r.sent-r.due))
		if !r.ok {
			s.Failed++
		}
	}
	s.P50, s.P90, s.P99 = quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)
	s.LateP99 = quantile(late, 0.99)
	return s
}

// saturate sends requests back to back over nproc connections, a closed
// loop, for length. It returns them with the stack's capacity, nproc over
// the median request time, and the rate at which they completed. The
// completion rate is nproc over the mean request time, and on a shared
// host the hypervisor's stalls of the virtual CPUs put a long tail on the
// request times, which the mean follows and the median does not: at 6-15%
// steal the completion rate spread by 32% (IQR/median) over seeds 1-10.
func (st *stack) saturate(seed int64, length time.Duration, bodies [][]byte, ref [][]det) (reqs []request, capacity, completed float64) {
	sched := schedule(seed, -1, saturationDraw, length)
	for i := range sched {
		sched[i].due = 0
	}
	reqs = st.runPhase(sched, length, bodies, ref, nil, nil)
	var took []float64
	var last time.Duration
	for _, r := range reqs {
		if r.sentOK && r.ok {
			took = append(took, (r.done - r.sent).Seconds())
			last = max(last, r.done)
		}
	}
	n := float64(runtime.NumCPU())
	return reqs, ratio(n, median(took)), ratio(float64(len(took)), last.Seconds())
}

// costLoop sends requests one at a time, each as soon as the previous one
// has returned, for length. It returns them and each crop's median scaled
// process CPU time per request in ms (calib.go; the calibration loop runs
// before every costCalibEvery-th request). With one request in
// flight, the process's CPU time over a request is that request's cost
// through the whole stack: client, gateway, replica, decode, queue and
// detection. The loop runs on one P (GOMAXPROCS 1): with a second, idle
// P, every hand-off between the stack's goroutines wakes a thread that
// spins looking for work, and that spinning, which a busy or contended
// host cuts short, read as a fifth of the request's CPU time.
func (st *stack) costLoop(seed int64, length time.Duration, bodies [][]byte, ref [][]det) (reqs []request, cost []float64) {
	sched := schedule(seed, -2, saturationDraw, length) // the crops and streams; due times unused
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start := time.Now()
	var calib float64
	byCrop := make([][]float64, len(bodies))
	for i, a := range sched {
		t0 := time.Since(start)
		if t0 >= length {
			break
		}
		if i%costCalibEvery == 0 {
			calib = calibrate()
		}
		c0 := processCPU()
		err := st.send(bodies[a.crop], a.stream, ref[a.crop], "")
		c := scaled(ms(processCPU()-c0), calib)
		byCrop[a.crop] = append(byCrop[a.crop], c)
		reqs = append(reqs, request{due: t0, sent: t0, done: time.Since(start), sentOK: true, ok: err == nil, op: len(reqs), err: err})
	}
	return reqs, medians(byCrop)
}

// windowLatency splits a phase into one-second windows by due time, takes
// each whole window's median latency, and returns the median and the p90
// of those: the typical second and a bad second. On a shared host the
// hypervisor deschedules the virtual CPUs for milliseconds at a time; at
// 10% steal that delays about a tenth of the 3 ms requests by the length
// of a stall, which doubled the per-request p90 between runs while a
// window's median moved by a sixth.
func windowLatency(reqs []request, length time.Duration) (p50, p90 float64) {
	wins := make([][]float64, max(1, int(length/time.Second)))
	for _, r := range reqs {
		if k := int(r.due / time.Second); k < len(wins) {
			wins[k] = append(wins[k], r.latency())
		}
	}
	var q50 []float64
	for _, w := range wins {
		q50 = append(q50, quantile(w, 0.5))
	}
	return median(q50), quantile(q50, 0.9)
}

// findKnee locates the highest sustained rate: the highest rate whose p99
// (failures counting as misses) stays within the latency limit. run plays
// one phase at a rate; done reports that the search's time is spent. The
// ladder climbs from ladderStart by ladderStep until a failing rate is
// confirmed by the next one, or the time ends on a failure; one failing
// rate followed by a passing one is a transient (a burst of the arrival
// schedule or a host stall), not the knee. The knee and the last passing
// rate below it then bracket the sustained rate, and each bisection step
// plays the bracket's geometric midpoint and keeps the half the knee lies
// in. The result is the bracket's passing end, moved toward its failing
// end by where the limit falls between their p99s on a log scale, so the
// figure stays continuous. The reference rate is taken as passing, the
// bracket's lower end until a ladder rate passes. A search that never
// fails reports its top rate.
func findKnee(run func(rate float64) phaseStats, done func() bool) (sustained float64, phases []phaseStats) {
	fail := func(p phaseStats) bool { return p.P99 > latencyLimitMS }
	lo := phaseStats{Rate: refRate}
	var hi, pending *phaseStats
	for rate := ladderStart; hi == nil && !done(); rate *= ladderStep {
		p := run(rate)
		phases = append(phases, p)
		switch {
		case !fail(p):
			lo, pending = p, nil
		case pending != nil:
			hi = pending
		default:
			pending = &p
		}
	}
	if hi == nil {
		hi = pending
	}
	if hi == nil {
		return lo.Rate, phases
	}
	for i := 0; i < kneeBisections && !done(); i++ {
		p := run(math.Sqrt(lo.Rate * hi.Rate))
		phases = append(phases, p)
		if fail(p) {
			hi = &p
		} else {
			lo = p
		}
	}
	x := 0.0
	if lo.P99 > 0 && !math.IsInf(hi.P99, 1) {
		x = (math.Log(latencyLimitMS) - math.Log(lo.P99)) / (math.Log(hi.P99) - math.Log(lo.P99))
	}
	return lo.Rate + x*(hi.Rate-lo.Rate), phases
}

func runServeCrops(o *options, tr *tracer) (*outcome, error) {
	imgs, bodies, err := cropSet(o.seed)
	if err != nil {
		return nil, err
	}
	ref, src, err := reference(o, o.workload, len(imgs), func() ([][]det, error) {
		model, err := svm.Load(o.models.pedestrian)
		if err != nil {
			return nil, err
		}
		cfg := pedestrianConfig()
		cfg.Workers = 1
		d, err := core.NewDetector(model, cfg)
		if err != nil {
			return nil, err
		}
		out := make([][]det, len(imgs))
		for i, img := range imgs {
			dets, err := d.Detect(img)
			if err != nil {
				return nil, err
			}
			out[i] = fromEval("pedestrian", dets)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	var st *stack
	setup, err := timeSetup(func() (func(), error) {
		var err error
		if st, err = startStack(o.models.pedestrian, o.seed, tr); err != nil {
			return nil, err
		}
		// Warm-up: one request through the gateway to each replica's stream.
		for s := 0; s < 2; s++ {
			if err := st.send(bodies[0], s, ref[0], ""); err != nil {
				st.close()
				return nil, fmt.Errorf("warm-up request: %w", err)
			}
		}
		return func() { st.close(); st = nil }, nil
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer st.close()

	// The capacity phase and the knee search run on a stack of their own,
	// built untimed before the allocation count starts, so that their
	// overload latencies never enter the hedge-delay histogram of the stack
	// the reference rate measures.
	var lst *stack
	if tr == nil {
		if lst, err = startStack(o.models.pedestrian, o.seed, nil); err != nil {
			return nil, fmt.Errorf("search stack: %w", err)
		}
	}

	oc := newOutcome()
	oc.notes = append(oc.notes, "reference: "+src)
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	arenaGets0, arenaMiss0 := st.arenaCounters()
	var all []request
	var phases []phaseStats
	var sustained, capacity, completed, refP50, refP90 float64
	var cost []float64 // each crop's median scaled CPU ms per request
	var costReqs int
	if tr == nil {
		// On the set-up stack, the sequential cost loop for half the run.
		// On the second stack, the closed-loop capacity for a tenth of the
		// run, then the knee search until four fifths of the run have
		// passed. Then the reference rate, on the set-up stack, for the
		// rest of the run in one phase. phases[0] is the reference.
		start := time.Now()
		var reqs []request
		reqs, cost = st.costLoop(o.seed, o.seconds/2, bodies, ref)
		all = append(all, reqs...)
		costReqs = len(reqs)
		reqs, capacity, completed = lst.saturate(o.seed, o.seconds/10, bodies, ref)
		all = append(all, reqs...)
		i := 0
		sustained, phases = findKnee(func(rate float64) phaseStats {
			i++
			reqs := lst.runPhase(schedule(o.seed, i, rate, ladderStepLen), ladderStepLen, bodies, ref, nil, nil)
			all = append(all, reqs...)
			return summarise(rate, reqs)
		}, func() bool { return time.Since(start) >= o.seconds*4/5 })
		lst.close()
		refLen := max(o.seconds-time.Since(start), o.seconds/5)
		refReqs := st.runPhase(schedule(o.seed, 0, refRate, refLen), refLen, bodies, ref, nil, nil)
		all = append(all, refReqs...)
		phases = append([]phaseStats{summarise(refRate, refReqs)}, phases...)
		refP50, refP90 = windowLatency(refReqs, refLen)
	} else {
		// The traced run stays at the reference rate and traces the
		// requests due in odd seconds, leaving the even ones as the
		// untraced baseline of bench.trace_overhead_pct.
		var degraded atomic.Uint64
		stop := st.watchDegraded(&degraded)
		reqs := st.runPhase(schedule(o.seed, 0, refRate, o.seconds), o.seconds, bodies, ref, tr,
			func(a arrival) bool { return int(a.due/time.Second)%2 == 1 })
		stop()
		all = reqs
		phases = append(phases, summarise(refRate, reqs))
		oc.metrics["rt.degraded_frames"] = float64(degraded.Load())
	}
	runtime.ReadMemStats(&mem1)

	var firstErr error
	for _, r := range all {
		if !r.sentOK {
			continue
		}
		oc.attempted++
		if !r.ok {
			oc.failed++
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}
	if firstErr != nil {
		oc.notes = append(oc.notes, "first error: "+firstErr.Error())
	}
	for _, p := range phases {
		oc.notes = append(oc.notes, fmt.Sprintf("rate %6.0f rps: sent %5d unsent %d failed %d  p50 %7.3f ms  p90 %7.3f ms  p99 %8.3f ms  late p99 %7.3f ms",
			p.Rate, p.Sent, p.Unsent, p.Failed, p.P50, p.P90, p.P99, p.LateP99))
	}
	oc.extra["phases"] = phases
	ops := float64(max(oc.attempted, 1))

	if tr == nil {
		refPhase := phases[0]
		setup.metrics(oc)
		oc.metrics["frames_per_cpu_s"] = perSecond(cost)
		oc.metrics["frame_cpu_ms_p50"] = median(cost)
		oc.metrics["frame_cpu_ms_p90"] = quantile(cost, 0.9)
		oc.metrics["allocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / ops
		oc.extra["alloc_kb_per_op_mean"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / ops
		oc.extra["frames_per_s"] = capacity
		oc.extra["req_ms_p50"] = refP50
		oc.extra["req_ms_p90"] = refP90
		oc.extra["req_ms_p99"] = refPhase.P99
		oc.extra["sustained_rps"] = sustained
		oc.extra["completed_rps"] = completed
		oc.notes = append(oc.notes,
			fmt.Sprintf("cost loop: %d requests one at a time; scaled CPU per request, over the crops' medians: p50 %.4g ms, p90 %.4g ms", costReqs, median(cost), quantile(cost, 0.9)),
			fmt.Sprintf("wall clock (not gated): req_ms_p50 %.3f ms, p90 %.3f ms (median and p90 over 1 s windows of the window median), req_ms_p99 %.3f ms at %.0f rps (%d requests); capacity frames_per_s %.1f requests/s (%d connections / median request time; completed %.1f/s); sustained_rps %.1f (p99 <= %.0f ms); allocation %.1f kB/request",
				refP50, refP90, refPhase.P99, refRate, refPhase.Sent, capacity, runtime.NumCPU(), completed, sustained, latencyLimitMS, oc.extra["alloc_kb_per_op_mean"]))
		return oc, nil
	}

	// Per-layer metrics: spans for the client, gateway and replica round
	// trip; the replicas' own recorders for everything inside them.
	gets, misses := st.arenaCounters()
	st.layerMetrics(oc, tr, all, mem1.Mallocs-mem0.Mallocs, gets-arenaGets0, misses-arenaMiss0)
	model, err := svm.Load(o.models.pedestrian)
	if err != nil {
		return nil, err
	}
	cfg := pedestrianConfig()
	cfg.Workers = 1
	levels, windows, err := densePyramid(model, cfg, imgs[0])
	if err != nil {
		return nil, err
	}
	oc.metrics["featpyr.levels"] = float64(levels)
	oc.metrics["core.windows"] = float64(windows)
	oc.metrics["core.scan_ns_per_window"] = ratio(oc.metrics["core.scan_ms"]*1e6, float64(windows))
	d, err := core.NewDetector(model, cfg)
	if err != nil {
		return nil, err
	}
	var raw, kept int
	for i, img := range imgs {
		rd, err := d.DetectRaw(img)
		if err != nil {
			return nil, err
		}
		raw += len(rd)
		kept += len(ref[i])
	}
	oc.metrics["core.nms_keep_ratio"] = ratio(float64(kept), float64(raw))
	return oc, nil
}

func (st *stack) arenaCounters() (gets, misses uint64) {
	for _, r := range st.reps {
		g, m := r.arena.Counters()
		gets += g
		misses += m
	}
	return gets, misses
}

// watchDegraded counts frames the replicas scan while their pipeline sits
// below rung 0, by polling the supervisors' stats; stop ends the poller and
// waits for it.
func (st *stack) watchDegraded(n *atomic.Uint64) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := make([]uint64, len(st.reps))
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			for i, r := range st.reps {
				agg := r.sup.Stats().Aggregate
				if agg.Rung > 0 {
					n.Add(agg.FramesOut - last[i])
				}
				last[i] = agg.FramesOut
			}
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}

func (st *stack) layerMetrics(oc *outcome, tr *tracer, reqs []request, mallocs, arenaGets, arenaMisses uint64) {
	m := st.m
	var frames, dropped uint64
	var srv serve.ServerStats
	for _, r := range st.reps {
		agg := r.sup.Stats().Aggregate
		frames += agg.FramesOut
		dropped += agg.FramesDropped
		s := r.srv.Stats()
		srv.Accepted += s.Accepted
		srv.Shed += s.Shed
		srv.BreakerRejected += s.BreakerRejected
	}
	meanMS := func(s obs.Stage) float64 {
		snap := m.Stage[s].Snapshot()
		return ms(snap.Mean())
	}
	oc.metrics["hog.cells_ms"] = meanMS(obs.StageHOGCells)
	oc.metrics["hog.norm_ms"] = meanMS(obs.StageHOGNorm)
	oc.metrics["featpyr.build_ms"] = meanMS(obs.StagePyramid)
	oc.metrics["core.scan_ms"] = meanMS(obs.StageScan)
	oc.metrics["core.nms_ms"] = meanMS(obs.StageNMS)
	cells := m.Stage[obs.StageHOGCells].Snapshot().Count
	oc.metrics["hog.cells_calls_per_frame"] = ratio(float64(cells), float64(frames))
	oc.metrics["imgproc.decode_ms_p50"] = ms(m.Stage[obs.StageDecode].Quantile(0.5))
	oc.metrics["core.arena_miss_ratio"] = ratio(float64(arenaMisses), float64(arenaGets))
	oc.metrics["core.allocs_per_frame"] = ratio(float64(mallocs), float64(len(reqs)))
	oc.metrics["serve.shed"] = float64(srv.Shed)
	oc.metrics["serve.breaker_rejected"] = float64(srv.BreakerRejected)
	oc.metrics["serve.admitted_share"] = ratio(float64(srv.Accepted), float64(srv.Accepted+srv.Shed+srv.BreakerRejected))
	oc.metrics["rt.queue_wait_ms_p50"] = ms(m.Wait.Quantile(0.5))
	oc.metrics["rt.queue_wait_ms_p99"] = ms(m.Wait.Quantile(0.99))
	oc.metrics["rt.frame_ms_p50"] = ms(m.Frame.Quantile(0.5))
	oc.metrics["rt.frames_dropped"] = float64(dropped)

	gs := st.gw.Stats()
	oc.metrics["gateway.attempts_per_request"] = ratio(float64(gs.Accepted+gs.HedgesFired+gs.Retries), float64(gs.Accepted))
	oc.metrics["gateway.hedges_fired"] = float64(gs.HedgesFired)
	oc.metrics["gateway.hedge_wins"] = float64(gs.HedgeWins)
	oc.metrics["gateway.retries"] = float64(gs.Retries)

	// Per traced request: the replica round trip is the winning attempt
	// (the first successful one to end); the gateway overhead is the
	// client's send-to-answer time minus it.
	spans := tr.snapshot()
	winner := make(map[int]span)
	for _, s := range spans {
		if s.Name != "serve.roundtrip" {
			continue
		}
		if w, ok := winner[s.Op]; !ok || s.End < w.End {
			winner[s.Op] = s
		}
	}
	var roundtrip, overhead, late, plain, traced, share []float64
	for _, r := range reqs {
		if !r.sentOK {
			continue
		}
		late = append(late, ms(r.sent-r.due))
		if !r.ok {
			continue
		}
		if !r.traced {
			plain = append(plain, ms(r.done-r.sent))
			continue
		}
		client := ms(r.done - r.sent)
		traced = append(traced, client)
		if w, ok := winner[r.op]; ok {
			roundtrip = append(roundtrip, ms(w.dur()))
			overhead = append(overhead, client-ms(w.dur()))
			share = append(share, 100*ms(w.dur())/client)
		}
	}
	oc.metrics["serve.roundtrip_ms_p50"] = median(roundtrip)
	oc.metrics["gateway.overhead_ms_p50"] = median(overhead)
	oc.metrics["loadgen.late_ms_p99"] = quantile(late, 0.99)
	oc.metrics["bench.traced_op_ms_p50"] = median(traced)
	oc.metrics["bench.stage_share_pct"] = median(share)
	if p := median(plain); p > 0 {
		oc.metrics["bench.trace_overhead_pct"] = (median(traced)/p - 1) * 100
	}
	oc.notes = append(oc.notes, fmt.Sprintf("traced requests %d, untraced %d", len(traced), len(plain)))
}
