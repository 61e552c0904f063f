package alloc

import (
	"krisp/internal/gpu"
)

// idleKey identifies an idle-device allocation. When every counter is
// zero, the mask depends only on these three request fields: the MinGrant
// cap cannot fire (the full clamped request fits in free CUs) and the
// progress floor cannot come up short (no CU is skipped), so MinGrant is
// deliberately absent from the key.
type idleKey struct {
	numCUs  int
	policy  Policy
	overlap int
}

// MaskCache memoizes Algorithm 1 for the shape that dominates the dispatch
// stream: idle-device requests (every kernel of a lone worker, and nearly
// every dispatch of a fleet, lands on an idle device). Busy-state requests
// run the allocator on the device's planes directly; the planes change on
// every launch and completion, so a busy-state entry would almost never
// hit. Cached masks are the allocator's own output, so cached and uncached
// runs are byte-identical.
type MaskCache struct {
	alloc *Allocator
	idle  map[idleKey]gpu.CUMask

	// Hits and Misses count idle-map outcomes (for tests and benchmarks).
	Hits, Misses uint64
}

// NewMaskCache builds a cache (and its backing Allocator) for one device
// topology. Like the Allocator, it is confined to the simulation goroutine.
func NewMaskCache(topo gpu.Topology) *MaskCache {
	return &MaskCache{
		alloc: NewAllocator(topo),
		idle:  make(map[idleKey]gpu.CUMask),
	}
}

// Generate returns the Algorithm 1 mask for req against the Resource
// Monitor state occ, serving idle-device requests from the idle map.
func (c *MaskCache) Generate(occ *gpu.Planes, req Request) gpu.CUMask {
	if occ.Busy() != 0 {
		return c.alloc.Generate(occ, req)
	}
	k := idleKey{numCUs: req.NumCUs, policy: req.Policy, overlap: req.OverlapLimit}
	if m, ok := c.idle[k]; ok {
		c.Hits++
		return m
	}
	m := c.alloc.Generate(occ, req)
	c.idle[k] = m
	c.Misses++
	return m
}
