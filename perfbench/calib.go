package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The gated times are CPU times scaled to a nominal host speed. On a shared
// host the speed of a virtual CPU drifts over seconds to minutes (turbo
// frequency, a busy hyperthread sibling): on the 2-vCPU host the bounds
// were set on, serve-crops requests sent one at a time took about 0.75 or
// about 1.4 CPU ms each, in stretches of seconds, whatever the crop. A CPU
// time taken right after a calibration loop is scaled by calibNominalMS
// over that loop's CPU time, so a slow stretch of the host slows both and
// leaves the quotient. The loop is the scan's kind of work: float32
// multiply-adds streamed over a 256 KiB buffer, about 1 ms on that host.
const calibNominalMS = 1.0

var calibBuf = func() []float32 {
	b := make([]float32, 64<<10)
	for i := range b {
		b[i] = float32(i%97) * 0.01
	}
	return b
}()

var calibSink float32 // keeps the loop's result alive

// calibrate runs the calibration loop on a locked OS thread and returns its
// CPU time in ms, as that thread's own CPU clock reads it.
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := cpuClock(clockThreadCPUTimeID)
	var acc float32
	for rep := 0; rep < 25; rep++ {
		for i := 0; i+4 <= len(calibBuf); i += 4 {
			acc += calibBuf[i]*calibBuf[i+1] + calibBuf[i+2]*calibBuf[i+3]
		}
	}
	calibSink += acc
	return ms(cpuClock(clockThreadCPUTimeID) - t0)
}

// scaled returns a CPU time in ms at the nominal host speed, given the
// calibration loop's CPU time measured next to it.
func scaled(cpuMS, calibMS float64) float64 { return cpuMS * calibNominalMS / calibMS }

const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

// processCPU returns the CPU time every thread of the process has used. A
// guest kernel with paravirtual steal accounting leaves out the time its
// virtual CPUs stand descheduled by the hypervisor, which wall time on a
// shared host includes.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}
