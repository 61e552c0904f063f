package gpu

import (
	"testing"

	"krisp/internal/sim"
)

// BenchmarkDuration measures the closed-form latency model — the profiler
// evaluates it tens of thousands of times per model sweep.
func BenchmarkDuration(b *testing.B) {
	d := NewDevice(sim.New(), MI50Spec(), nil)
	work := KernelWork{Workgroups: 550, ThreadsPerWG: 256, WGTime: 10, MemBytes: 1e7, Tail: 0.5, WaveExponent: 0.65}
	mask := RangeMask(MI50, 0, 37)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Duration(work, mask)
	}
}

// BenchmarkLaunchCompleteCycle measures one kernel lifecycle on the
// device, including the retime of co-runners.
func BenchmarkLaunchCompleteCycle(b *testing.B) {
	eng := sim.New()
	d := NewDevice(eng, MI50Spec(), nil)
	work := KernelWork{Workgroups: 600, ThreadsPerWG: 256, WGTime: 10, Tail: 0.5}
	mask := FullMask(MI50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Launch(work, mask, nil)
		eng.Run()
	}
}

// longRunner is a co-runner that outlives any benchmark loop, so every
// iteration retimes the same set of kernels.
var longRunner = KernelWork{Workgroups: 6000, ThreadsPerWG: 256, WGTime: 1e9, Tail: 0.5}

// BenchmarkContendedRetime measures the retime cost with several
// concurrent kernels — the dominant per-event cost in big simulations.
// Each kernel owns one SE, so the short kernel's launch and completion
// never touch a co-runner's CUs.
func BenchmarkContendedRetime(b *testing.B) {
	eng := sim.New()
	d := NewDevice(eng, MI50Spec(), nil)
	for i := 0; i < 3; i++ {
		d.Launch(longRunner, RangeMask(MI50, i*15, 15), nil)
	}
	short := KernelWork{Workgroups: 150, ThreadsPerWG: 256, WGTime: 1, Tail: 0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Launch(short, RangeMask(MI50, 45, 15), nil)
		// Drain only the short kernel's completion.
		eng.Step()
	}
}

// spreadMask takes perSE CUs from every SE starting at CU offset within
// the SE (wrapping), the shape the Distributed policy grants.
func spreadMask(t Topology, perSE, offset int) CUMask {
	var m CUMask
	for se := 0; se < t.NumSEs; se++ {
		for c := 0; c < perSE; c++ {
			m = m.Set(t.CUIndex(se, (offset+c)%t.CUsPerSE))
		}
	}
	return m
}

// BenchmarkOverlappedRetime is BenchmarkContendedRetime with the masks
// KRISP-I produces under an overlap limit: four long co-runners with
// Distributed masks that overlap their neighbours on every SE, and a
// short kernel whose mask overlaps all four. Every launch and completion
// changes pressure under every co-runner, so no contention term can be
// reused.
func BenchmarkOverlappedRetime(b *testing.B) {
	eng := sim.New()
	d := NewDevice(eng, MI50Spec(), nil)
	for i := 0; i < 4; i++ {
		d.Launch(longRunner, spreadMask(MI50, 8, i*2), nil)
	}
	short := KernelWork{Workgroups: 150, ThreadsPerWG: 256, WGTime: 1, Tail: 0.5}
	shortMask := spreadMask(MI50, 4, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Launch(short, shortMask, nil)
		eng.Step()
	}
}

func BenchmarkMaskOps(b *testing.B) {
	m := FullMask(MI50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m = m.Clear(i % 60).Set(i % 60)
		_ = m.CountInSE(MI50, i%4)
	}
}
