package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 50.5}, {100, 100}, {95, 95.05},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 0.2 {
			t.Errorf("P%v = %v, want ~%v", c.p, got, c.want)
		}
	}
}

func TestPercentileEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.P95() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty sample stats not zero")
	}
	s.Add(42)
	if s.P95() != 42 || s.Mean() != 42 || s.Percentile(1) != 42 {
		t.Error("single-value sample stats wrong")
	}
}

func TestAddAfterPercentileResorts(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.P95()
	s.Add(1)
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %v after late add, want 1", got)
	}
}

func TestMeanMinMax(t *testing.T) {
	var s Sample
	for _, v := range []float64{3, 1, 4, 1, 5} {
		s.Add(v)
	}
	if got := s.Mean(); math.Abs(got-2.8) > 1e-9 {
		t.Errorf("Mean = %v, want 2.8", got)
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", s.Min(), s.Max())
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5", s.Len())
	}
}

func TestBoxStats(t *testing.T) {
	box := BoxOf([]float64{1, 2, 3, 4, 5})
	if box.Min != 1 || box.Median != 3 || box.Max != 5 {
		t.Errorf("Box = %+v", box)
	}
	if box.Q1 != 2 || box.Q3 != 4 {
		t.Errorf("quartiles = %v/%v, want 2/4", box.Q1, box.Q3)
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("Geomean(1,100) = %v, want 10", got)
	}
	if got := Geomean([]float64{2, 2, 2}); math.Abs(got-2) > 1e-9 {
		t.Errorf("Geomean(2,2,2) = %v, want 2", got)
	}
	if Geomean(nil) != 0 {
		t.Error("Geomean(nil) != 0")
	}
	if Geomean([]float64{1, 0, 4}) != 0 {
		t.Error("Geomean with zero entry should return 0")
	}
	if Geomean([]float64{-1}) != 0 {
		t.Error("Geomean with negative entry should return 0")
	}
}

func TestThroughput(t *testing.T) {
	// 500 requests over 2 virtual seconds = 250 RPS.
	if got := Throughput(500, 2e6); got != 250 {
		t.Errorf("Throughput = %v, want 250", got)
	}
	if Throughput(10, 0) != 0 {
		t.Error("zero window should yield 0")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		for i := 0; i < int(n%100)+1; i++ {
			s.Add(rng.Float64() * 1000)
		}
		prev := s.Min()
		for p := 5.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev-1e-9 || v > s.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: geomean lies between min and max for positive inputs.
func TestGeomeanBoundsProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%20) + 1
		vals := make([]float64, count)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range vals {
			vals[i] = rng.Float64()*99 + 1
			lo = math.Min(lo, vals[i])
			hi = math.Max(hi, vals[i])
		}
		g := Geomean(vals)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPercentileKeepsValuesOrder is the regression test for the
// shared-slice footgun: Percentile used to sort the backing array that
// Values hands out, silently reordering caller-held slices. Sorting now
// happens on a private copy.
func TestPercentileKeepsValuesOrder(t *testing.T) {
	var s Sample
	in := []float64{5, 1, 4, 2, 3}
	for _, v := range in {
		s.Add(v)
	}
	held := s.Values()
	if got := s.Percentile(50); got != 3 {
		t.Errorf("P50 = %v, want 3", got)
	}
	_ = s.Min()
	_ = s.Max()
	for i, v := range held {
		if v != in[i] {
			t.Fatalf("Values()[%d] = %v after Percentile, want %v (insertion order lost)", i, v, in[i])
		}
	}
	// Adding after a percentile query must invalidate the sorted copy.
	s.Add(0)
	if got := s.Min(); got != 0 {
		t.Errorf("Min after Add = %v, want 0", got)
	}
}

// sortedP95 is the reference P95Window is checked against: copy the
// window, sort it, read the nearest-rank 95th percentile.
func sortedP95(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	idx := (len(s)*95 + 99) / 100
	if idx > 0 {
		idx--
	}
	return s[idx]
}

// TestP95WindowMatchesSortedReference drives the top-k window and the
// sort-based reference with the same random sequences — short and past
// the 64-slot wrap, with heavy duplicates — checking equality after most
// Adds, plus the empty window, the slide and the cache invalidation.
func TestP95WindowMatchesSortedReference(t *testing.T) {
	var w P95Window
	if got := w.P95(); got != 0 || w.Len() != 0 {
		t.Fatalf("empty window: p95 %v len %d, want 0 and 0", got, w.Len())
	}
	for i := 1; i <= 100; i++ {
		w.Add(float64(i))
	}
	// The window holds the last 64 values, 37..100; p95 is near the top.
	got := w.P95()
	if got < 95 || got > 100 || w.Len() != 64 {
		t.Fatalf("p95 = %v len %d, want within [95, 100] and 64", got, w.Len())
	}
	// The cached value invalidates on Add.
	w.Add(1e9)
	if w.P95() <= got {
		t.Fatal("p95 did not react to a new extreme sample")
	}

	rng := rand.New(rand.NewSource(7))
	for seq := 0; seq < 2000; seq++ {
		var w P95Window
		var recent []float64
		levels := 1 + rng.Intn(10) // few levels: many duplicates
		for i, n := 0, 1+rng.Intn(150); i < n; i++ {
			v := float64(rng.Intn(levels)) * 250
			if rng.Intn(4) == 0 {
				v = rng.Float64() * 1e4
			}
			w.Add(v)
			if recent = append(recent, v); len(recent) > 64 {
				recent = recent[1:]
			}
			if rng.Intn(3) == 0 {
				continue // several Adds between reads
			}
			if got, want := w.P95(), sortedP95(recent); got != want {
				t.Fatalf("sequence %d, add %d: p95 %v, sorted reference %v", seq, i, got, want)
			}
		}
	}
}
