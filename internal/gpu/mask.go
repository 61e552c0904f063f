package gpu

import (
	"math/bits"
	"strings"
)

// MaxCUs is the largest device this package's CUMask supports.
const MaxCUs = 128

// CUMask is a bitmask over physical compute units: bit i set means CU i is
// enabled. It mirrors the mask passed to AMD's CU Masking API and the
// kernel resource mask KRISP's packet processor generates.
//
// The zero value is the empty mask.
type CUMask struct {
	lo, hi uint64
}

// Set returns a copy of m with CU cu enabled.
func (m CUMask) Set(cu int) CUMask {
	if cu < 64 {
		m.lo |= 1 << uint(cu)
	} else {
		m.hi |= 1 << uint(cu-64)
	}
	return m
}

// Clear returns a copy of m with CU cu disabled.
func (m CUMask) Clear(cu int) CUMask {
	if cu < 64 {
		m.lo &^= 1 << uint(cu)
	} else {
		m.hi &^= 1 << uint(cu-64)
	}
	return m
}

// Has reports whether CU cu is enabled.
func (m CUMask) Has(cu int) bool {
	if cu < 64 {
		return m.lo&(1<<uint(cu)) != 0
	}
	return m.hi&(1<<uint(cu-64)) != 0
}

// Count returns the number of enabled CUs.
func (m CUMask) Count() int {
	return bits.OnesCount64(m.lo) + bits.OnesCount64(m.hi)
}

// IsEmpty reports whether no CU is enabled.
func (m CUMask) IsEmpty() bool { return m.lo == 0 && m.hi == 0 }

// And returns the intersection of two masks.
func (m CUMask) And(o CUMask) CUMask { return CUMask{m.lo & o.lo, m.hi & o.hi} }

// Or returns the union of two masks.
func (m CUMask) Or(o CUMask) CUMask { return CUMask{m.lo | o.lo, m.hi | o.hi} }

// AndNot returns the CUs in m that are not in o.
func (m CUMask) AndNot(o CUMask) CUMask { return CUMask{m.lo &^ o.lo, m.hi &^ o.hi} }

// Lowest returns the k lowest-numbered CUs of m (all of m if it has no
// more than k).
func (m CUMask) Lowest(k int) CUMask {
	rest := m
	for ; k > 0 && rest.lo != 0; k-- {
		rest.lo &= rest.lo - 1
	}
	for ; k > 0 && rest.hi != 0; k-- {
		rest.hi &= rest.hi - 1
	}
	return m.AndNot(rest)
}

// Equal reports whether two masks enable the same CUs.
func (m CUMask) Equal(o CUMask) bool { return m.lo == o.lo && m.hi == o.hi }

// CUs returns the enabled CU ids in ascending order.
func (m CUMask) CUs() []int {
	out := make([]int, 0, m.Count())
	lo := m.lo
	for lo != 0 {
		out = append(out, bits.TrailingZeros64(lo))
		lo &= lo - 1
	}
	hi := m.hi
	for hi != 0 {
		out = append(out, 64+bits.TrailingZeros64(hi))
		hi &= hi - 1
	}
	return out
}

// seBits extracts shader engine se's slice of the mask as a uint64 with
// bit c set for enabled (se, c). CUs are laid out SE-major (CUIndex), so
// the slice is the CUsPerSE-wide bit range starting at se*CUsPerSE,
// possibly straddling the lo/hi words. Callers iterate or popcount it,
// keeping the per-SE hot paths free of per-CU Has probes.
func (m CUMask) seBits(t Topology, se int) uint64 {
	a := uint(se * t.CUsPerSE)
	var v uint64
	if a >= 64 {
		v = m.hi >> (a - 64)
	} else {
		v = m.lo >> a
		if a > 0 {
			v |= m.hi << (64 - a)
		}
	}
	if t.CUsPerSE < 64 {
		v &= 1<<uint(t.CUsPerSE) - 1
	}
	return v
}

// CountInSE returns the number of enabled CUs within shader engine se.
func (m CUMask) CountInSE(t Topology, se int) int {
	return bits.OnesCount64(m.seBits(t, se))
}

// UsedSEs returns the shader engines with at least one enabled CU,
// ascending.
func (m CUMask) UsedSEs(t Topology) []int {
	var out []int
	for se := 0; se < t.NumSEs; se++ {
		if m.seBits(t, se) != 0 {
			out = append(out, se)
		}
	}
	return out
}

// FullMask returns a mask enabling all CUs of the topology.
func FullMask(t Topology) CUMask {
	var m CUMask
	for cu := 0; cu < t.TotalCUs(); cu++ {
		m = m.Set(cu)
	}
	return m
}

// RangeMask returns a mask enabling CUs [lo, hi) of the topology, wrapping
// around modulo TotalCUs. It is how Static Equal and Model Right-Size
// partitions carve contiguous CU ranges.
func RangeMask(t Topology, lo, n int) CUMask {
	var m CUMask
	total := t.TotalCUs()
	if n > total {
		n = total
	}
	for i := 0; i < n; i++ {
		m = m.Set((lo + i) % total)
	}
	return m
}

// String renders the mask as per-SE groups, most-significant CU first, e.g.
// "SE0[111000000000000] SE1[...]". Intended for debugging and traces.
func (m CUMask) String() string {
	return m.Format(MI50)
}

// Format renders the mask against an explicit topology.
func (m CUMask) Format(t Topology) string {
	var b strings.Builder
	for se := 0; se < t.NumSEs; se++ {
		if se > 0 {
			b.WriteByte(' ')
		}
		b.WriteString("SE")
		b.WriteByte(byte('0' + se%10))
		b.WriteByte('[')
		for c := 0; c < t.CUsPerSE; c++ {
			if m.Has(t.CUIndex(se, c)) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte(']')
	}
	return b.String()
}
