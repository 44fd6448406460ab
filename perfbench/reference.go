package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
)

// det is one detection in the comparable form the correctness check uses:
// class label, box, and the exact float64 score.
type det struct {
	class      string
	x, y, w, h int
	score      float64
}

func fromEval(class string, ds []eval.Detection) []det {
	out := make([]det, len(ds))
	for i, d := range ds {
		out[i] = det{class, d.Box.Min.X, d.Box.Min.Y, d.Box.W(), d.Box.H(), d.Score}
	}
	return out
}

func fromClass(ds []core.ClassDetection) []det {
	out := make([]det, len(ds))
	for i, d := range ds {
		out[i] = det{d.Class, d.Box.Min.X, d.Box.Min.Y, d.Box.W(), d.Box.H(), d.Score}
	}
	return out
}

// sameEval reports whether got equals want bit for bit (boxes, scores and
// order), without converting got.
func sameEval(class string, got []eval.Detection, want []det) bool {
	if len(got) != len(want) {
		return false
	}
	for i, d := range got {
		w := want[i]
		if w.class != class || d.Box.Min.X != w.x || d.Box.Min.Y != w.y ||
			d.Box.W() != w.w || d.Box.H() != w.h || d.Score != w.score {
			return false
		}
	}
	return true
}

func sameDets(got, want []det) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// The digest is the committed reference: for each input of a workload at
// one seed, the detections the reference configuration produces, one line
// per detection with the score in hexadecimal floating point (which
// round-trips float64 exactly), as in core's golden fixture.
func digestPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.txt", workload, seed))
}

func writeDigest(path, workload string, seed int64, ref [][]det) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench reference detections: workload %s, seed %d, %d inputs.\n", workload, seed, len(ref))
	b.WriteString("# Format: <input> <class> x y w h score-hex; an input with no detections has the line \"<input> -\".\n")
	fmt.Fprintf(&b, "# Regenerate: bash perfbench/run.sh --workload %s --seed %d --update-digest\n", workload, seed)
	for i, ds := range ref {
		if len(ds) == 0 {
			fmt.Fprintf(&b, "%d -\n", i)
		}
		for _, d := range ds {
			fmt.Fprintf(&b, "%d %s %d %d %d %d %s\n", i, d.class, d.x, d.y, d.w, d.h,
				strconv.FormatFloat(d.score, 'x', -1, 64))
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// readDigest parses a digest written by writeDigest. The error wraps
// fs.ErrNotExist when no digest is committed for the seed.
func readDigest(path string, inputs int) ([][]det, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ref := make([][]det, inputs)
	seen := make([]bool, inputs)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		idx, err := strconv.Atoi(fields[0])
		if err != nil || idx < 0 || idx >= inputs {
			return nil, fmt.Errorf("%s:%d: bad input index %q (want 0..%d)", path, line, fields[0], inputs-1)
		}
		seen[idx] = true
		if len(fields) == 2 && fields[1] == "-" {
			continue
		}
		if len(fields) != 7 {
			return nil, fmt.Errorf("%s:%d: want 7 fields, got %q", path, line, text)
		}
		var v [4]int
		for i := range v {
			if v[i], err = strconv.Atoi(fields[i+2]); err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, line, err)
			}
		}
		score, err := strconv.ParseFloat(fields[6], 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		ref[idx] = append(ref[idx], det{fields[1], v[0], v[1], v[2], v[3], score})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("%s: input %d missing", path, i)
		}
	}
	return ref, nil
}

// reference returns the expected detections of every input: the committed
// digest when one exists for the seed, else compute() (the reference
// configuration run in-process). With update set it always computes and
// rewrites the digest.
func reference(o *options, workload string, inputs int, compute func() ([][]det, error)) ([][]det, string, error) {
	path := digestPath(o.digests, workload, o.seed)
	if !o.update {
		ref, err := readDigest(path, inputs)
		if err == nil {
			return ref, "committed digest " + path, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, "", err
		}
	}
	ref, err := compute()
	if err != nil {
		return nil, "", fmt.Errorf("reference run: %w", err)
	}
	if o.update {
		if err := writeDigest(path, workload, o.seed, ref); err != nil {
			return nil, "", err
		}
		return ref, "rewrote digest " + path, nil
	}
	return ref, "in-process reference (no digest committed for this seed)", nil
}
