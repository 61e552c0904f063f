package alloc

import (
	"testing"

	"krisp/internal/gpu"
)

// FuzzGenerateMask drives Algorithm 1 with arbitrary counter states and
// request shapes; the mask must equal the counter oracle's, and always be
// non-empty, within the clamped request size, and inside the device.
func FuzzGenerateMask(f *testing.F) {
	f.Add(uint(19), uint(0), uint(0), uint(15), uint64(0))
	f.Add(uint(60), uint(60), uint(1), uint(0), uint64(0xffffffffffffffff))
	f.Add(uint(1), uint(3), uint(2), uint(30), uint64(0x5555555555555555))
	f.Fuzz(func(t *testing.T, numCUs, limit, policy, minGrant uint, busy uint64) {
		counters := make([]int, 60)
		for cu := 0; cu < 60; cu++ {
			counters[cu] = int(busy >> uint(cu) & 1)
			if cu < 4 { // a few heavily loaded CUs
				counters[cu] += int(busy >> 60 & 3)
			}
		}
		req := Request{
			NumCUs:       int(numCUs % 100),
			OverlapLimit: int(limit % 70),
			Policy:       Policy(policy % 3),
			MinGrant:     int(minGrant % 70),
		}
		mask := GenerateMask(gpu.MI50, counters, req)
		if want := referenceGenerate(gpu.MI50, counters, req); mask != want {
			t.Fatalf("req %+v counters %v: planes %v, reference %v", req, counters, mask, want)
		}
		if mask.IsEmpty() {
			t.Fatalf("empty mask for %+v", req)
		}
		want := req.NumCUs
		if want < 1 {
			want = 1
		}
		if want > 60 {
			want = 60
		}
		if mask.Count() > want {
			t.Fatalf("mask %d CUs exceeds clamped request %d (%+v)", mask.Count(), want, req)
		}
		for _, cu := range mask.CUs() {
			if cu < 0 || cu >= 60 {
				t.Fatalf("mask contains CU %d outside the device", cu)
			}
		}
	})
}
