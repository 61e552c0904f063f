package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"krisp/internal/gpu"
)

var mi50 = gpu.MI50

func idle() []int { return make([]int, 60) }

func TestConservedUsesMinimumSEs(t *testing.T) {
	cases := []struct {
		numCUs  int
		wantSEs int
	}{
		{1, 1}, {15, 1}, {16, 2}, {19, 2}, {30, 2}, {31, 3}, {45, 3}, {46, 4}, {60, 4},
	}
	for _, c := range cases {
		m := GenerateMask(mi50, idle(), Request{NumCUs: c.numCUs, OverlapLimit: NoOverlapLimit})
		if got := m.Count(); got != c.numCUs {
			t.Errorf("conserved %d CUs: mask has %d", c.numCUs, got)
		}
		if got := len(m.UsedSEs(mi50)); got != c.wantSEs {
			t.Errorf("conserved %d CUs: used %d SEs, want %d", c.numCUs, got, c.wantSEs)
		}
	}
}

func TestConservedBalancesAcrossSelectedSEs(t *testing.T) {
	// The paper's Fig. 7 example: 19 CUs over the MI50 should use 2 SEs
	// split 10/9 under Conserved.
	m := GenerateMask(mi50, idle(), Request{NumCUs: 19, OverlapLimit: NoOverlapLimit})
	used := m.UsedSEs(mi50)
	if len(used) != 2 {
		t.Fatalf("used %d SEs, want 2", len(used))
	}
	counts := []int{m.CountInSE(mi50, used[0]), m.CountInSE(mi50, used[1])}
	if counts[0]+counts[1] != 19 {
		t.Fatalf("total CUs = %d, want 19", counts[0]+counts[1])
	}
	diff := counts[0] - counts[1]
	if diff < -1 || diff > 1 {
		t.Errorf("imbalanced split %v", counts)
	}
}

func TestDistributedSpreadsAcrossAllSEs(t *testing.T) {
	m := GenerateMask(mi50, idle(), Request{NumCUs: 19, OverlapLimit: NoOverlapLimit, Policy: Distributed})
	if got := len(m.UsedSEs(mi50)); got != 4 {
		t.Errorf("distributed 19 CUs used %d SEs, want 4", got)
	}
	if m.Count() != 19 {
		t.Errorf("mask count = %d, want 19", m.Count())
	}
	for se := 0; se < 4; se++ {
		n := m.CountInSE(mi50, se)
		if n < 4 || n > 5 {
			t.Errorf("SE%d has %d CUs, want 4 or 5", se, n)
		}
	}
}

func TestPackedFillsSEsSequentially(t *testing.T) {
	m := GenerateMask(mi50, idle(), Request{NumCUs: 19, OverlapLimit: NoOverlapLimit, Policy: Packed})
	if m.Count() != 19 {
		t.Fatalf("mask count = %d, want 19", m.Count())
	}
	used := m.UsedSEs(mi50)
	if len(used) != 2 {
		t.Fatalf("packed 19 used %d SEs, want 2", len(used))
	}
	full, spill := m.CountInSE(mi50, used[0]), m.CountInSE(mi50, used[1])
	if full != 15 || spill != 4 {
		t.Errorf("packed split = %d/%d, want 15/4", full, spill)
	}
}

func TestLeastLoadedSEPreferred(t *testing.T) {
	counters := idle()
	// Load SE0 and SE1 heavily.
	for cu := 0; cu < 30; cu++ {
		counters[cu] = 3
	}
	m := GenerateMask(mi50, counters, Request{NumCUs: 15, OverlapLimit: NoOverlapLimit})
	used := m.UsedSEs(mi50)
	if len(used) != 1 || used[0] < 2 {
		t.Errorf("allocation landed on SE%v, want SE2 or SE3", used)
	}
}

func TestLeastLoadedCUsWithinSE(t *testing.T) {
	counters := idle()
	counters[0], counters[1], counters[2] = 5, 5, 5 // busy CUs in SE0
	// Everything else idle; ask for 12 CUs — fits in SE0's idle CUs.
	m := GenerateMask(mi50, counters, Request{NumCUs: 12, OverlapLimit: 0})
	if m.Count() != 12 {
		t.Fatalf("mask count = %d, want 12", m.Count())
	}
	for _, cu := range []int{0, 1, 2} {
		if m.Has(cu) {
			t.Errorf("isolated allocation picked busy CU %d", cu)
		}
	}
}

func TestOverlapLimitShrinksAllocation(t *testing.T) {
	counters := idle()
	for cu := 0; cu < 60; cu++ {
		counters[cu] = 1 // fully busy device
	}
	// KRISP-I: no overlap allowed. All candidates are busy, so isolation
	// degrades to an overlapped allocation of half the request (the
	// starvation floor keeps overlap minimal).
	m := GenerateMask(mi50, counters, Request{NumCUs: 20, OverlapLimit: 0})
	if m.Count() != 10 {
		t.Errorf("fully-busy isolated mask count = %d, want 10 (half-request overlap floor)", m.Count())
	}
	// KRISP-O: unrestricted overlap gets the full request.
	m = GenerateMask(mi50, counters, Request{NumCUs: 20, OverlapLimit: NoOverlapLimit})
	if m.Count() != 20 {
		t.Errorf("oversubscribed mask count = %d, want 20", m.Count())
	}
	// A limit of 5 grants at most 5 busy CUs.
	m = GenerateMask(mi50, counters, Request{NumCUs: 20, OverlapLimit: 5})
	if m.Count() != 5 {
		t.Errorf("limit-5 mask count = %d, want 5", m.Count())
	}
}

func TestPartialIsolationMixesFreeAndBudget(t *testing.T) {
	counters := idle()
	// SE0: CUs 0-9 busy, 10-14 free. Other SEs fully busy.
	for cu := 0; cu < 60; cu++ {
		counters[cu] = 1
	}
	for cu := 10; cu < 15; cu++ {
		counters[cu] = 0
	}
	m := GenerateMask(mi50, counters, Request{NumCUs: 12, OverlapLimit: 0})
	// 12 CUs requested from the least-loaded SE (SE0): 5 free CUs granted,
	// 7 busy ones skipped by the overlap limit.
	if m.Count() != 5 {
		t.Errorf("mask count = %d, want 5", m.Count())
	}
	for _, cu := range m.CUs() {
		if counters[cu] != 0 {
			t.Errorf("isolated mask includes busy CU %d", cu)
		}
	}
}

func TestRequestClamping(t *testing.T) {
	if got := GenerateMask(mi50, idle(), Request{NumCUs: 0, OverlapLimit: 0}).Count(); got != 1 {
		t.Errorf("zero-CU request got %d CUs, want 1", got)
	}
	if got := GenerateMask(mi50, idle(), Request{NumCUs: 999, OverlapLimit: 0}).Count(); got != 60 {
		t.Errorf("oversized request got %d CUs, want 60", got)
	}
}

func TestNilCountersMeansIdle(t *testing.T) {
	a := GenerateMask(mi50, nil, Request{NumCUs: 19, OverlapLimit: 0})
	b := GenerateMask(mi50, idle(), Request{NumCUs: 19, OverlapLimit: 0})
	if !a.Equal(b) {
		t.Error("nil counters mask differs from idle counters mask")
	}
}

func TestPolicyString(t *testing.T) {
	if Conserved.String() != "conserved" || Distributed.String() != "distributed" ||
		Packed.String() != "packed" || Policy(99).String() != "unknown" {
		t.Error("Policy.String() wrong")
	}
}

// TestFreeCUs pins the free-CU count the MinGrant cap reads: total CUs
// minus the popcount of the occupied mask.
func TestFreeCUs(t *testing.T) {
	counters := idle()
	counters[3], counters[40] = 2, 1
	if got := mi50.TotalCUs() - gpu.PlanesOf(counters).Busy(); got != 58 {
		t.Errorf("free CUs = %d, want 58", got)
	}
}

// Property: the generated mask never exceeds the requested size, never
// exceeds the overlap limit in busy CUs (beyond the one-CU progress
// floor), and is never empty.
func TestGenerateMaskInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		counters := make([]int, 60)
		for i := range counters {
			counters[i] = rng.Intn(4)
		}
		req := Request{
			NumCUs:       rng.Intn(70),
			OverlapLimit: rng.Intn(8),
			Policy:       Policy(rng.Intn(3)),
		}
		m := GenerateMask(mi50, counters, req)
		if m.IsEmpty() {
			return false
		}
		want := req.NumCUs
		if want < 1 {
			want = 1
		}
		if want > 60 {
			want = 60
		}
		if m.Count() > want {
			return false
		}
		busy := 0
		for _, cu := range m.CUs() {
			if counters[cu] > 0 {
				busy++
			}
		}
		// Either the overlap limit held, or the allocation degraded to
		// the overlapped fallback (in which case it may not exceed the
		// clamped request, checked above).
		return busy <= req.OverlapLimit || busy == m.Count()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: on an idle device, Conserved's per-SE split differs by at most
// one CU between the SEs it uses.
func TestConservedBalanceProperty(t *testing.T) {
	prop := func(n uint8) bool {
		numCUs := int(n%60) + 1
		m := GenerateMask(mi50, idle(), Request{NumCUs: numCUs, OverlapLimit: NoOverlapLimit})
		if m.Count() != numCUs {
			return false
		}
		used := m.UsedSEs(mi50)
		min, max := 16, 0
		for _, se := range used {
			c := m.CountInSE(mi50, se)
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
