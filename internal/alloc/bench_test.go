package alloc

import (
	"math/rand"
	"testing"

	"krisp/internal/gpu"
	"krisp/internal/sim"
)

// BenchmarkGenerateMask measures Algorithm 1 on the dispatch fast path — a
// reused Allocator over the Resource Monitor planes. The paper reports a
// ~1us firmware tail for this operation; the software implementation
// should be comfortably inside that, at 0 allocs/op.
func BenchmarkGenerateMask(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	counters := make([]int, 60)
	for i := range counters {
		counters[i] = rng.Intn(3)
	}
	occ := gpu.PlanesOf(counters)
	req := Request{NumCUs: 22, OverlapLimit: 0, MinGrant: 15}
	a := NewAllocator(gpu.MI50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Generate(occ, req)
	}
}

// BenchmarkGenerateMaskCold measures the compatibility wrapper, which
// converts counters to planes and builds a throwaway Allocator per call —
// the cost cold paths pay.
func BenchmarkGenerateMaskCold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	counters := make([]int, 60)
	for i := range counters {
		counters[i] = rng.Intn(3)
	}
	req := Request{NumCUs: 22, OverlapLimit: 0, MinGrant: 15}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = GenerateMask(gpu.MI50, counters, req)
	}
}

func BenchmarkGenerateMaskOversubscribed(b *testing.B) {
	counters := make([]int, 60)
	for i := range counters {
		counters[i] = 2
	}
	occ := gpu.PlanesOf(counters)
	req := Request{NumCUs: 40, OverlapLimit: NoOverlapLimit}
	a := NewAllocator(gpu.MI50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Generate(occ, req)
	}
}

// BenchmarkGenerateBusy measures Algorithm 1 on the busy states a KRISP-I
// server produces: 1,024 Resource Monitor snapshots taken on a real device
// running four co-located kernels of 12-40 CUs, each placed by Algorithm 1
// itself, paired with the next such request at the four-stream fair share.
func BenchmarkGenerateBusy(b *testing.B) {
	const states = 1024
	rng := rand.New(rand.NewSource(5))
	eng := sim.New()
	dev := gpu.NewDevice(eng, gpu.MI50Spec(), nil)
	a := NewAllocator(gpu.MI50)
	next := func() Request {
		return Request{NumCUs: 12 + rng.Intn(29), OverlapLimit: 0, MinGrant: 60 / 4}
	}
	launch := func() {
		work := gpu.KernelWork{Workgroups: 200 + rng.Intn(1800), ThreadsPerWG: 256, WGTime: 10}
		dev.Launch(work, a.Generate(dev.Planes(), next()), nil)
	}
	for i := 0; i < 4; i++ {
		launch()
	}
	occ := make([]gpu.Planes, states)
	reqs := make([]Request, states)
	for i := range occ {
		eng.Step()
		launch()
		occ[i], reqs[i] = *dev.Planes(), next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Generate(&occ[i%states], reqs[i%states])
	}
}

// BenchmarkMaskCacheIdleHit measures the steady state of a lone stream:
// every allocation lands on an idle device and hits the idle-key map.
func BenchmarkMaskCacheIdleHit(b *testing.B) {
	c := NewMaskCache(gpu.MI50)
	occ := &gpu.Planes{}
	req := Request{NumCUs: 22, OverlapLimit: 0, MinGrant: 60}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Generate(occ, req)
	}
}
