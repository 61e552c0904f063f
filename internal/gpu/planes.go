package gpu

// NumPlanes is the depth of the bit-plane counters: a CU holds at most
// 1<<NumPlanes - 1 kernels, and more is a bug that panics.
const NumPlanes = 16

// Planes holds the Resource Monitor's per-CU kernel counters (Algorithm 1's
// CU_Kernel_Counters) as bit planes: bit cu of plane p is bit p of CU cu's
// count. A launch or completion updates all CUs of its mask at once by a
// ripple-carry add or borrow of the mask; Algorithm 1 reads SE loads and
// least-loaded CU sets by popcount and mask arithmetic. The zero value is
// an idle device.
type Planes struct {
	plane [NumPlanes]CUMask
	// depth is the number of low planes that may be non-empty. occupied
	// is their union, the CUs with a non-zero count; busy caches its
	// popcount, read on every launch and completion.
	depth    int
	occupied CUMask
	busy     int
}

// add increments the counter of every CU in m. The carry stops as soon as
// it is empty, so the cost follows the counts, not NumPlanes.
func (p *Planes) add(m CUMask) {
	carry, i := m, 0
	for ; !carry.IsEmpty(); i++ {
		if i == NumPlanes {
			panic("gpu: per-CU kernel counter overflow")
		}
		pl := p.plane[i]
		carry, p.plane[i] = carry.And(pl), CUMask{pl.lo ^ carry.lo, pl.hi ^ carry.hi}
	}
	p.depth = max(p.depth, i)
	p.occupied = p.occupied.Or(m)
	p.busy = p.occupied.Count()
}

// sub decrements the counter of every CU in m. A borrow out of the top
// non-empty plane means some CU of m was already at zero.
func (p *Planes) sub(m CUMask) {
	borrow := m
	for i := 0; !borrow.IsEmpty(); i++ {
		if i == p.depth {
			panic("gpu: per-CU kernel counter went negative")
		}
		pl := p.plane[i]
		borrow, p.plane[i] = borrow.AndNot(pl), CUMask{pl.lo ^ borrow.lo, pl.hi ^ borrow.hi}
	}
	for p.depth > 0 && p.plane[p.depth-1].IsEmpty() {
		p.depth--
	}
	p.occupied = CUMask{}
	for i := range p.depth {
		p.occupied = p.occupied.Or(p.plane[i])
	}
	p.busy = p.occupied.Count()
}

// Busy returns the number of CUs with at least one kernel assigned.
func (p *Planes) Busy() int { return p.busy }

// Occupied returns the CUs with at least one kernel assigned.
func (p *Planes) Occupied() CUMask { return p.occupied }

// Load returns the summed kernel count of the CUs in m: the sum over
// planes of popcount(plane ∩ m) << plane.
func (p *Planes) Load(m CUMask) int {
	n := 0
	for i := 0; i < p.depth; i++ {
		n += p.plane[i].And(m).Count() << i
	}
	return n
}

// MinLevel returns the CUs of m holding the fewest kernels, found
// bit-serially from the top plane down: at each plane, keep the candidates
// whose bit is clear if there are any.
func (p *Planes) MinLevel(m CUMask) CUMask {
	for i := p.depth - 1; i >= 0; i-- {
		if z := m.AndNot(p.plane[i]); !z.IsEmpty() {
			m = z
		}
	}
	return m
}

// PlanesOf converts per-CU kernel counters, indexed by CU id, to planes:
// the boundary for cold callers that hold []int counters.
func PlanesOf(counters []int) *Planes {
	p := new(Planes)
	for cu, c := range counters {
		for ; c > 0; c-- {
			p.add(CUMask{}.Set(cu))
		}
	}
	return p
}
