// Package metrics provides the statistics the evaluation harness reports:
// latency percentiles, throughput, geometric means, normalization helpers,
// and five-number summaries for the co-location boxplots (Fig. 15).
package metrics

import (
	"math"
	"sort"
)

// Sample accumulates scalar observations (latencies, in microseconds).
type Sample struct {
	values []float64
	// sorted is a lazily-built sorted copy of values, invalidated by Add.
	// Percentile/Min/Max sort this private copy rather than the backing
	// array itself, so slices handed out by Values keep insertion order.
	sorted []float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = nil
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.values) }

// Values returns the raw observations in insertion order (shared slice; do
// not mutate). Percentile queries never reorder it.
func (s *Sample) Values() []float64 { return s.values }

func (s *Sample) sortValues() []float64 {
	if s.sorted == nil {
		s.sorted = make([]float64, len(s.values))
		copy(s.sorted, s.values)
		sort.Float64s(s.sorted)
	}
	return s.sorted
}

// Percentile returns the p-th percentile (0 < p <= 100) using linear
// interpolation between closest ranks. An empty sample returns 0.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	sorted := s.sortValues()
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// P95 returns the 95th percentile — the paper's tail-latency metric.
func (s *Sample) P95() float64 { return s.Percentile(95) }

// P99 returns the 99th percentile.
func (s *Sample) P99() float64 { return s.Percentile(99) }

// Mean returns the arithmetic mean, 0 when empty.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Min returns the smallest observation, 0 when empty.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sortValues()[0]
}

// Max returns the largest observation, 0 when empty.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sorted := s.sortValues()
	return sorted[len(sorted)-1]
}

// BoxStats is a five-number summary for boxplots (Fig. 15).
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
}

// Box returns the five-number summary of the sample.
func (s *Sample) Box() BoxStats {
	return BoxStats{
		Min:    s.Min(),
		Q1:     s.Percentile(25),
		Median: s.Percentile(50),
		Q3:     s.Percentile(75),
		Max:    s.Max(),
	}
}

// BoxOf summarizes a plain slice.
func BoxOf(values []float64) BoxStats {
	var s Sample
	for _, v := range values {
		s.Add(v)
	}
	return s.Box()
}

// Geomean returns the geometric mean of values; zero and negative entries
// are rejected by returning 0 (they would make the geomean meaningless).
func Geomean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sumLog := 0.0
	for _, v := range values {
		if v <= 0 {
			return 0
		}
		sumLog += math.Log(v)
	}
	return math.Exp(sumLog / float64(len(values)))
}

// Throughput converts a completion count over a virtual-time window in
// microseconds to requests per second.
func Throughput(completed int, windowUs float64) float64 {
	if windowUs <= 0 {
		return 0
	}
	return float64(completed) / windowUs * 1e6
}

// P95Window keeps the 64 most recent observations and serves their 95th
// percentile, cached until the next Add. The fleet's router keeps one per
// replica and its gateway one per model; the router reads it after every
// completion, which makes it one of the fleet's hottest non-simulation
// paths. The zero value is an empty window.
type P95Window struct {
	buf     [64]float64
	n, next int
	dirty   bool
	p95v    float64
}

// Add records one observation, evicting the oldest once the window is full.
func (w *P95Window) Add(v float64) {
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.dirty = true
}

// Len returns the number of observations in the window.
func (w *P95Window) Len() int { return w.n }

// P95 returns the window's 95th percentile (nearest rank), 0 when empty.
// For n <= 64 samples the percentile rank is always within the top 4, so
// a single pass keeping the k largest gives sorted[idx] — duplicates
// included — without a copy or a sort.
func (w *P95Window) P95() float64 {
	if w.n == 0 {
		return 0
	}
	if w.dirty {
		idx := (w.n*95 + 99) / 100
		if idx > 0 {
			idx--
		}
		k := w.n - idx // p95 is the k-th largest sample; k in [1,4]
		var top [4]float64
		m := 0
		for _, v := range w.buf[:w.n] {
			if m < k {
				i := m
				for i > 0 && top[i-1] > v {
					top[i] = top[i-1]
					i--
				}
				top[i] = v
				m++
				continue
			}
			if v <= top[0] {
				continue
			}
			i := 0
			for i+1 < k && top[i+1] < v {
				top[i] = top[i+1]
				i++
			}
			top[i] = v
		}
		w.p95v = top[0]
		w.dirty = false
	}
	return w.p95v
}
