package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostCost is what one timed section cost the host.
type hostCost struct {
	wallS, cpuS, allocMB float64
}

// measure runs fn and returns its wall time, the process's user+system CPU
// time over the call (every thread, the garbage collector's included) and
// the bytes it allocated.
func measure(fn func()) hostCost {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	cpu0 := processCPU()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&ms)
	return hostCost{
		wallS:   wall.Seconds(),
		cpuS:    cpu.Seconds(),
		allocMB: float64(ms.TotalAlloc-alloc0) / (1 << 20),
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// stealSeconds reads the machine-wide steal time from /proc/stat: time a
// hypervisor ran something else while this VM's CPUs wanted to run. It
// returns -1 where /proc/stat is unavailable.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

// fingerprint describes the host a result was measured on, so a noisy run
// can be explained: CPU count, toolchain, scheduler width and how much CPU
// time the hypervisor stole during the run.
func fingerprint(stealS float64) string {
	steal := "n/a"
	if stealS >= 0 {
		steal = fmt.Sprintf("%.2fs", stealS)
	}
	return fmt.Sprintf("host: nproc=%d go=%s gomaxprocs=%d os=%s/%s steal=%s",
		runtime.NumCPU(), runtime.Version(), runtime.GOMAXPROCS(0),
		runtime.GOOS, runtime.GOARCH, steal)
}

// median returns the median of vs (the mean of the middle pair for an even
// count); it does not reorder vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
