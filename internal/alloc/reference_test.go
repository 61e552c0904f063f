package alloc

import (
	"math/rand"
	"sort"
	"testing"

	"krisp/internal/gpu"
)

// referenceGenerate is Algorithm 1 written directly over per-CU counters:
// SEs and, within each SE, CUs are stable-sorted by kernel count, and the
// progress-floor extension re-runs the pass on a counter copy in which the
// CUs already granted carry busyMark. It is the oracle the plane allocator
// must match mask for mask.
func referenceGenerate(topo gpu.Topology, counters []int, req Request) gpu.CUMask {
	if counters == nil {
		counters = make([]int, topo.TotalCUs())
	}
	return referencePass(topo, counters, req, true)
}

func referencePass(topo gpu.Topology, counters []int, req Request, extend bool) gpu.CUMask {
	total := topo.TotalCUs()
	numCUs := min(max(req.NumCUs, 1), total)
	free := 0
	for _, c := range counters {
		if c == 0 {
			free++
		}
	}
	if req.MinGrant > 0 && req.OverlapLimit < total && numCUs > req.MinGrant && numCUs > free {
		numCUs = req.MinGrant
	}
	quotas := NewAllocator(topo).seQuotas(numCUs, req.Policy)

	load := make([]int, topo.NumSEs)
	order := make([]int, topo.NumSEs)
	for se := range order {
		for c := 0; c < topo.CUsPerSE; c++ {
			load[se] += counters[topo.CUIndex(se, c)]
		}
		order[se] = se
	}
	sort.SliceStable(order, func(i, j int) bool { return load[order[i]] < load[order[j]] })

	var mask gpu.CUMask
	allocated, overlapped := 0, 0
	for i := 0; i < len(quotas) && allocated < numCUs; i++ {
		cus := make([]int, topo.CUsPerSE)
		for c := range cus {
			cus[c] = topo.CUIndex(order[i], c)
		}
		sort.SliceStable(cus, func(a, b int) bool { return counters[cus[a]] < counters[cus[b]] })
		take := min(quotas[i], numCUs-allocated)
		for j := 0; j < take; j++ {
			busy := counters[cus[j]] > 0
			if busy {
				overlapped++
			}
			if !busy || overlapped <= req.OverlapLimit {
				mask = mask.Set(cus[j])
			}
			allocated++
		}
	}

	floor := min(req.MinGrant, numCUs)
	if mask.IsEmpty() && floor < 1 {
		floor = numCUs
	}
	if short := (floor+1)/2 - mask.Count(); extend && short > 0 {
		ext := append([]int(nil), counters...)
		for _, cu := range mask.CUs() {
			ext[cu] += busyMark
		}
		mask = mask.Or(referencePass(topo, ext, Request{
			NumCUs: short, OverlapLimit: NoOverlapLimit, Policy: req.Policy,
		}, false))
	}
	return mask
}

// randomOverlapLimit draws KRISP-I (0), a random finite limit, or KRISP-O.
func randomOverlapLimit(rng *rand.Rand) int {
	switch rng.Intn(3) {
	case 0:
		return 0
	case 1:
		return rng.Intn(12)
	default:
		return NoOverlapLimit
	}
}

// TestPlanesMatchReference checks the plane allocator against the counter
// oracle on random Resource Monitor states: MI50 and MI100, counts 0-7
// (sparse and dense), all three policies, overlap limits 0, random and
// NoOverlapLimit, with and without a random MinGrant. One Allocator is
// reused throughout, so scratch state leaking between calls shows up too.
func TestPlanesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, topo := range []gpu.Topology{gpu.MI50, gpu.MI100} {
		a := NewAllocator(topo)
		total := topo.TotalCUs()
		counters := make([]int, total)
		for iter := 0; iter < 60000; iter++ {
			maxCount, idleFrac := 1+rng.Intn(8), rng.Float64()
			for cu := range counters {
				counters[cu] = 0
				if rng.Float64() > idleFrac {
					counters[cu] = rng.Intn(maxCount)
				}
			}
			req := Request{
				NumCUs:       rng.Intn(total + 10),
				OverlapLimit: randomOverlapLimit(rng),
				Policy:       Policy(rng.Intn(3)),
			}
			if rng.Intn(2) == 0 {
				req.MinGrant = rng.Intn(total + 1)
			}
			got := a.Generate(gpu.PlanesOf(counters), req)
			if want := referenceGenerate(topo, counters, req); got != want {
				t.Fatalf("%v iter %d req %+v counters %v:\nplanes    %s\nreference %s",
					topo, iter, req, counters, got.Format(topo), want.Format(topo))
			}
		}
	}
}
