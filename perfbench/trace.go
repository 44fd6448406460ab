package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed interval of a traced run. Spans of one operation (a
// frame or a request) share Op; Parent is the ID of the enclosing span, or
// -1 for the operation's root. Times are nanoseconds since the run began.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory; write dumps them when the run ends.
// A nil *tracer records nothing, so untraced runs pass nil.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its ID, for children to name as parent;
// end closes it.
func (t *tracer) begin(op, parent int, name string, start time.Time) int {
	return t.add(op, parent, name, start, start)
}

func (t *tracer) end(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(end.Sub(t.t0))
}

// add records a span and returns its ID (for children to name as parent).
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Op: op, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// stageSpanNames maps the detect recorder's stages to layer span names.
var stageSpanNames = [obs.NumStages]string{
	obs.StageDecode:   "imgproc.decode",
	obs.StageHOGCells: "hog.cells",
	obs.StageHOGNorm:  "hog.norm",
	obs.StagePyramid:  "featpyr.build",
	obs.StageScan:     "core.scan",
	obs.StageNMS:      "core.nms",
}

// addStages records the per-stage breakdown of one detect call as child
// spans of parent. The recorder reports durations, not start times, so the
// children are laid end to end from the parent's start in pipeline order
// (the stages run one after another inside DetectCtx).
func (t *tracer) addStages(op, parent int, start time.Time, stages [obs.NumStages]int64) {
	if t == nil {
		return
	}
	at := start
	for s, ns := range stages {
		if ns == 0 {
			continue
		}
		end := at.Add(time.Duration(ns))
		t.add(op, parent, stageSpanNames[s], at, end)
		at = end
	}
}

// perOp sums, per operation, the duration (self=false) or the self time
// (self=true) of every span with the given name, in milliseconds, keyed by
// operation; operations without such a span are absent. A span's self time
// is its duration minus the part of its interval its children cover.
func (t *tracer) perOp(name string, self bool) map[int]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var children map[int][]span
	if self {
		children = make(map[int][]span)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
	}
	out := make(map[int]float64)
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if self {
			d -= covered(s, children[s.ID])
		}
		out[s.Op] += ms(d)
	}
	return out
}

// medianOf is the median of a per-operation map.
func medianOf(m map[int]float64) float64 {
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	return median(xs)
}

// covered returns how much of parent's interval the union of kids covers.
// Children may overlap (a hedged request runs two attempts at once), so
// their intervals are merged before summing.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
