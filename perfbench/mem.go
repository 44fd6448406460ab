package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssSampler tracks the peak resident set of one set-up build. The
// process's own high-water mark (VmHWM) would also count benchmark
// preparation (input rendering and the reference run) and the other
// builds, so instead the sampler collects the heap and returns it to the
// OS, then reads the resident set every 10 ms, and once more when it
// stops, until the build and its warm-up are done.
type rssSampler struct {
	mu   sync.Mutex
	peak int64
	quit chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	s := &rssSampler{quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.quit:
				s.sample()
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.peak = max(s.peak, pages*int64(os.Getpagesize()))
	s.mu.Unlock()
}

// stop ends sampling and returns the peak in MB. It may be called again.
func (s *rssSampler) stop() float64 {
	s.once.Do(func() { close(s.quit) })
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak) / (1 << 20)
}
