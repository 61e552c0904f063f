// Package alloc implements KRISP's partition resource allocation: given a
// requested partition size (number of CUs), the device topology, and the
// per-CU kernel counters from the Resource Monitor, it generates the kernel
// resource mask the packet processor tags onto the dispatch.
//
// Three CU-distribution policies are provided (paper §IV-C, Fig. 7):
//
//   - Distributed: spread the allocation equally across all SEs (the
//     default hardware behaviour). Suffers when the allocation is smaller
//     than one CU per SE-share — dips at 15, 11, 7 CUs on the MI50.
//   - Packed: fill one SE completely before spilling into the next.
//     Suffers whenever an SE is left nearly empty — spikes at 16, 31, 46.
//   - Conserved: use the minimum number of SEs that satisfies the request
//     and spread evenly across them. Avoids both pitfalls; KRISP adopts it.
//
// Allocator.Generate is a faithful implementation of the paper's
// Algorithm 1, including the overlap limit: CUs already running kernels
// count as "overlapped", and once the limit is exceeded further busy CUs
// are skipped (consuming allocation budget without setting the bit, exactly
// as the pseudocode does), so a constrained allocation can return fewer CUs
// than requested — this is the KRISP-I behaviour of granting only what is
// isolatable.
//
// Algorithm 1 runs on every kernel launch, so the allocator is built for
// the dispatch fast path: it reads the Resource Monitor's bit planes
// (gpu.Planes) directly — SE loads by popcount, least-loaded CU sets by
// mask arithmetic — and allocates nothing per call. A MaskCache in front of
// it memoizes idle-device allocations, the dominant request shape.
package alloc

import (
	"krisp/internal/gpu"
)

// Policy selects how CUs are distributed across shader engines.
type Policy int

const (
	// Conserved uses the fewest SEs that satisfy the request, evenly.
	Conserved Policy = iota
	// Distributed spreads the request across all SEs evenly.
	Distributed
	// Packed fills SEs one at a time.
	Packed
)

func (p Policy) String() string {
	switch p {
	case Conserved:
		return "conserved"
	case Distributed:
		return "distributed"
	case Packed:
		return "packed"
	default:
		return "unknown"
	}
}

// NoOverlapLimit disables the overlap limit: every CU may be shared.
// Passing it as overlapLimit yields KRISP-O behaviour.
const NoOverlapLimit = int(^uint(0) >> 1)

// Request describes one allocation.
type Request struct {
	// NumCUs is the partition size from kernel-wise right-sizing.
	NumCUs int
	// OverlapLimit is the maximum number of allocated CUs that may already
	// have kernels assigned. 0 = full isolation (KRISP-I),
	// NoOverlapLimit = unrestricted (KRISP-O).
	OverlapLimit int
	// Policy is the SE distribution policy. The zero value is Conserved,
	// the policy KRISP adopts.
	Policy Policy
	// MinGrant is a progress floor: if the overlap limit leaves the
	// allocation below min(NumCUs, MinGrant), the shortfall is filled with
	// overlapped least-loaded CUs regardless of the limit. The command
	// processor passes the kernel's fair share (totalCUs / active kernels)
	// here so a starved stream degrades to time-shared fairness instead of
	// crawling on whatever scraps are free.
	MinGrant int
}

// Allocator runs Algorithm 1 over fixed scratch buffers so the per-launch
// mask generation allocates nothing. It is not safe for concurrent use;
// each command processor (simulation goroutine) owns its own.
type Allocator struct {
	topo gpu.Topology

	// seMasks[se] holds SE se's CUs. seLoads[se] is the SE's sort key (its
	// summed kernel count); seOrder holds SE ids sorted least-loaded first
	// (insertion sort keeps ties in SE-id order, matching the stable sort
	// of the original implementation).
	seMasks []gpu.CUMask
	seLoads []int
	seOrder []int
	// quotas is the per-selected-SE CU quota buffer.
	quotas []int
}

// NewAllocator builds an allocator for one device topology.
func NewAllocator(topo gpu.Topology) *Allocator {
	a := &Allocator{
		topo:    topo,
		seMasks: make([]gpu.CUMask, topo.NumSEs),
		seLoads: make([]int, topo.NumSEs),
		seOrder: make([]int, topo.NumSEs),
		quotas:  make([]int, topo.NumSEs),
	}
	for se := range a.seMasks {
		a.seMasks[se] = gpu.RangeMask(topo, topo.CUIndex(se, 0), topo.CUsPerSE)
	}
	return a
}

// Generate runs Algorithm 1 against the Resource Monitor state occ (the
// zero gpu.Planes for an idle device) and returns the kernel resource mask.
// occ is never mutated.
//
// The mask is never empty: if the overlap limit filtered out every
// candidate (all CUs busy under KRISP-I), the single least-loaded CU is
// granted so the kernel can make progress. The paper's evaluation implies
// the same floor ("we allocate only what is available").
func (a *Allocator) Generate(occ *gpu.Planes, req Request) gpu.CUMask {
	total := a.topo.TotalCUs()
	numCUs := min(max(req.NumCUs, 1), total)

	// Isolation-seeking requests (a finite overlap limit) exceed the fair
	// share only when the full request fits in currently free CUs:
	// "allocate only what is available". Without the cap, early
	// requesters hoard CUs and force later ones into saturating overlap;
	// a partial surplus (free CUs above fair but below the request) is
	// left for other streams, so concurrent streams converge to an even
	// split while a lone stream still gets its full request.
	if req.MinGrant > 0 && req.OverlapLimit < total &&
		numCUs > req.MinGrant && numCUs > total-occ.Busy() {
		numCUs = req.MinGrant
	}

	mask := a.pass(occ, numCUs, req.OverlapLimit, req.Policy, gpu.CUMask{})

	// Progress floor. If the overlap limit starved the allocation (below
	// MinGrant, or empty outright), extend it with overlapped
	// least-loaded CUs: a real command processor must still dispatch the
	// kernel, and a near-empty grant would pin the stream to scraps for
	// the kernel's whole lifetime. This is the "allocate only what is
	// available" clause of the paper's KRISP-I description, taken at the
	// point where "available" becomes the time-shared machine.
	floor := min(req.MinGrant, numCUs)
	if mask.IsEmpty() && floor < 1 {
		floor = numCUs
	}
	// A grant moderately below the fair share costs little (wave counts
	// quantize), while overlapping poisons both kernels on the shared
	// CUs, so the overlapped extension only fires when the isolated grant
	// fell below half the floor — the genuine starvation cases. The
	// extension is a second pass with no overlap limit that ranks the
	// CUs already granted last.
	if short := (floor+1)/2 - mask.Count(); short > 0 {
		mask = mask.Or(a.pass(occ, short, NoOverlapLimit, req.Policy, mask))
	}
	return mask
}

// pass is one Algorithm 1 pass for numCUs CUs. CUs in granted rank after
// every other CU: SEs order by (granted CUs, load) and, within an SE, the
// granted CUs are visited after the ungranted ones.
//
// Within an SE, CUs are visited level by level — the CUs holding the
// fewest kernels first, lowest CU id first within a level — which is the
// (count, CU id) order of a stable sort by count. A level that fits the
// remaining quota and overlap budget is taken with one OR.
func (a *Allocator) pass(occ *gpu.Planes, numCUs, overlapLimit int, p Policy, granted gpu.CUMask) gpu.CUMask {
	quotas := a.seQuotas(numCUs, p)

	// Select SEs ordered by total assigned kernels, least-loaded first
	// (Algorithm 1 lines 4-8). Ties break on SE id for determinism.
	order := a.seOrder
	for se, sm := range a.seMasks {
		a.seLoads[se] = occ.Load(sm) + busyMark*sm.And(granted).Count()
		order[se] = se
	}
	insertionSortByKey(order, a.seLoads)

	var mask gpu.CUMask
	overlapped := 0
	// The quotas sum to numCUs and none exceeds an SE, so every SE's
	// quota is consumed in full.
	for i, take := range quotas {
		sm := a.seMasks[order[i]]
		for _, cands := range [2]gpu.CUMask{sm.AndNot(granted), sm.And(granted)} {
			for take > 0 && !cands.IsEmpty() {
				level := occ.MinLevel(cands)
				busy := !level.And(occ.Occupied()).IsEmpty()
				if busy && overlapped >= overlapLimit {
					// Every later level is busy too, and the budget
					// is spent: nothing more in this SE is granted.
					break
				}
				cands = cands.AndNot(level)
				n := level.Count()
				if n > take {
					level, n = level.Lowest(take), take
				}
				take -= n
				if busy {
					// Busy CUs are granted while the overlap budget
					// lasts; past it they still consume quota without
					// setting a bit — the Algorithm 1 quirk that makes
					// constrained allocations smaller than requested
					// instead of hunting further.
					if allow := overlapLimit - overlapped; allow < n {
						level = level.Lowest(allow)
					}
					overlapped += n
				}
				mask = mask.Or(level)
			}
		}
	}
	return mask
}

// insertionSortByKey sorts ids ascending by key[id], stably: equal keys
// keep their order, which Algorithm 1's determinism relies on. It sorts the
// N<=8 SEs without allocating sort.SliceStable's closure.
func insertionSortByKey(ids []int, key []int) {
	for i := 1; i < len(ids); i++ {
		id := ids[i]
		k := key[id]
		j := i
		for j > 0 && key[ids[j-1]] > k {
			ids[j] = ids[j-1]
			j--
		}
		ids[j] = id
	}
}

// busyMark weighs each granted CU in an SE's sort key so the floor
// extension prefers SEs holding fewer granted CUs over any realistic load.
const busyMark = 1 << 20

// seQuotas fills the per-selected-SE CU quotas for a request of numCUs
// under the given policy (Algorithm 1 lines 2-3 for Conserved; the
// Distributed/Packed variants of Fig. 7). The returned slice aliases the
// allocator's quota scratch buffer.
//
// Algorithm 1's pseudocode uses cu_per_se = ceil(num_cus/num_se) for every
// SE with the last SE absorbing the shortfall, which can leave a 2-CU
// imbalance (e.g. 40 CUs -> 14/14/12). The paper's prose says "evenly
// distribute across those SEs" and Fig. 8's smooth Conserved curve matches
// the even split, so we use floor+remainder quotas (40 -> 14/13/13).
func (a *Allocator) seQuotas(numCUs int, p Policy) []int {
	topo := a.topo
	var numSE int
	switch p {
	case Distributed:
		numSE = min(topo.NumSEs, numCUs)
	case Packed:
		quotas := a.quotas[:ceilDiv(numCUs, topo.CUsPerSE)]
		left := numCUs
		for i := range quotas {
			take := min(topo.CUsPerSE, left)
			quotas[i] = take
			left -= take
		}
		return quotas
	default: // Conserved
		numSE = ceilDiv(numCUs, topo.CUsPerSE)
	}
	quotas := a.quotas[:numSE]
	base, extra := numCUs/numSE, numCUs%numSE
	for i := range quotas {
		quotas[i] = base
		if i < extra {
			quotas[i]++
		}
	}
	return quotas
}

// GenerateMask runs Algorithm 1 once with a throwaway Allocator over
// per-CU counters (nil: idle device). It is the compatibility wrapper for
// cold paths (policy carving, figures, tests); the dispatch fast path holds
// a reusable Allocator (or a MaskCache) over the device's planes instead.
func GenerateMask(topo gpu.Topology, counters []int, req Request) gpu.CUMask {
	return NewAllocator(topo).Generate(gpu.PlanesOf(counters), req)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
