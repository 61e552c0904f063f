package alloc

import (
	"math/rand"
	"testing"

	"krisp/internal/gpu"
)

func randomRequest(rng *rand.Rand) Request {
	req := Request{
		NumCUs: rng.Intn(70),
		Policy: Policy(rng.Intn(3)),
	}
	req.OverlapLimit = randomOverlapLimit(rng)
	if rng.Intn(2) == 0 {
		req.MinGrant = rng.Intn(61)
	}
	return req
}

// TestAllocatorMatchesGenerateMask drives one reused Allocator through
// random counter states and requests and checks every mask against a
// fresh-allocator call — scratch state leaking between calls would
// diverge them.
func TestAllocatorMatchesGenerateMask(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewAllocator(gpu.MI50)
	counters := make([]int, 60)
	for iter := 0; iter < 2000; iter++ {
		for i := range counters {
			counters[i] = rng.Intn(4)
		}
		req := randomRequest(rng)
		got := a.Generate(gpu.PlanesOf(counters), req)
		want := GenerateMask(gpu.MI50, counters, req)
		if !got.Equal(want) {
			t.Fatalf("iter %d req %+v: reused allocator %v, fresh %v", iter, req, got, want)
		}
	}
}

// TestAllocatorZeroAllocs asserts the dispatch fast path allocates
// nothing, including when the MinGrant progress-floor extension fires.
func TestAllocatorZeroAllocs(t *testing.T) {
	a := NewAllocator(gpu.MI50)
	busy := make([]int, 60)
	for i := range busy {
		busy[i] = 1 + i%2
	}
	cases := []struct {
		name string
		occ  *gpu.Planes
		req  Request
	}{
		{"idle", &gpu.Planes{}, Request{NumCUs: 22, OverlapLimit: 0, MinGrant: 15}},
		{"busy", gpu.PlanesOf(busy), Request{NumCUs: 22, OverlapLimit: NoOverlapLimit}},
		{"floor-extension", gpu.PlanesOf(busy), Request{NumCUs: 22, OverlapLimit: 0, MinGrant: 30}},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, func() {
			_ = a.Generate(tc.occ, tc.req)
		}); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestMaskCacheMatchesUncached runs a mutation script through a MaskCache
// and checks every served mask — idle hit, idle miss or busy — against an
// uncached computation on the same counters.
func TestMaskCacheMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewMaskCache(gpu.MI50)
	counters := make([]int, 60)
	for iter := 0; iter < 3000; iter++ {
		switch rng.Intn(5) {
		case 0: // return to idle
			clear(counters)
		case 1, 2: // occupancy change
			counters[rng.Intn(60)]++
		default: // unchanged state
		}
		req := randomRequest(rng)
		got := c.Generate(gpu.PlanesOf(counters), req)
		want := GenerateMask(gpu.MI50, counters, req)
		if !got.Equal(want) {
			t.Fatalf("iter %d req %+v counters %v: cached %v, uncached %v", iter, req, counters, got, want)
		}
	}
	if c.Hits == 0 {
		t.Error("mutation script never hit the cache")
	}
	if c.Misses == 0 {
		t.Error("mutation script never missed the cache")
	}
}

// TestIdleMaskIndependentOfMinGrant backs the idle-key design: with every
// counter zero the MinGrant cap cannot fire and the floor cannot come up
// short, so idle masks must not vary with MinGrant (it is deliberately
// absent from the cache key).
func TestIdleMaskIndependentOfMinGrant(t *testing.T) {
	for _, p := range []Policy{Conserved, Distributed, Packed} {
		for _, limit := range []int{0, 3, NoOverlapLimit} {
			for n := 1; n <= 60; n++ {
				base := GenerateMask(gpu.MI50, nil, Request{NumCUs: n, OverlapLimit: limit, Policy: p})
				for _, mg := range []int{1, 15, 60} {
					got := GenerateMask(gpu.MI50, nil, Request{NumCUs: n, OverlapLimit: limit, Policy: p, MinGrant: mg})
					if !got.Equal(base) {
						t.Fatalf("policy %v limit %d n %d: MinGrant %d changed idle mask", p, limit, n, mg)
					}
				}
			}
		}
	}
}

// TestMaskCacheHitServesCachedGrid asserts the cache serves the dominant
// shape from the idle map — an idle-device repeat is a hit — while a busy
// device always runs the allocator on its planes, leaving the idle
// counters untouched.
func TestMaskCacheHitServesCachedGrid(t *testing.T) {
	c := NewMaskCache(gpu.MI50)
	req := Request{NumCUs: 22, OverlapLimit: 0, MinGrant: 60}
	first := c.Generate(&gpu.Planes{}, req)
	again := c.Generate(&gpu.Planes{}, req)
	if c.Hits != 1 || c.Misses != 1 || !first.Equal(again) {
		t.Fatalf("idle repeat: hits = %d misses = %d, masks equal = %v", c.Hits, c.Misses, first.Equal(again))
	}
	counters := make([]int, 60)
	counters[3] = 1
	busyReq := Request{NumCUs: 10, OverlapLimit: 0, MinGrant: 15}
	got := c.Generate(gpu.PlanesOf(counters), busyReq)
	if want := GenerateMask(gpu.MI50, counters, busyReq); !got.Equal(want) || got.Has(3) {
		t.Fatalf("busy request: got %v, want %v", got, want)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("busy request touched the idle map: hits = %d misses = %d", c.Hits, c.Misses)
	}
}
