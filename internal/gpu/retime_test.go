package gpu

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"krisp/internal/sim"
)

// refDuration is the timing model evaluated from scratch in one pass, the
// way it was written before it was split into a fixed wave cost and a
// cached contention term: per SE the half-wave quantization, the
// WaveExponent power, the degraded-CU stretch and the co-runner stretch,
// then the bandwidth-shared memory term and the tail. ownPressure +Inf
// means the solo view. It is the oracle the incremental retime must match
// bit for bit.
func refDuration(d *Device, work KernelWork, mask CUMask, ownPressure, ownMem float64) sim.Duration {
	topo := d.Spec.Topo
	nSE := 0
	for se := 0; se < topo.NumSEs; se++ {
		if mask.seBits(topo, se) != 0 {
			nSE++
		}
	}
	baseWG := work.Workgroups / nSE
	extraWG := work.Workgroups % nSE
	var worst float64
	i := 0
	for se := 0; se < topo.NumSEs; se++ {
		sb := mask.seBits(topo, se)
		if sb == 0 {
			continue
		}
		wgSE := baseWG
		if i < extraWG {
			wgSE++
		}
		i++
		if wgSE == 0 {
			continue
		}
		a := bits.OnesCount64(sb)
		waves := float64(wgSE) / float64(a*d.Spec.SlotsPerCU)
		wq := math.Ceil(2*waves) / 2
		if wq < 1 {
			wq = 1
		}
		waveCost := wq
		if work.WaveExponent > 0 && work.WaveExponent != 1 && wq > 1 {
			waveCost = math.Pow(wq, work.WaveExponent)
		}
		if d.numDegraded > 0 {
			sumDeg := 0.0
			base := se * topo.CUsPerSE
			for w := sb; w != 0; w &= w - 1 {
				sumDeg += d.degrade[base+bits.TrailingZeros64(w)]
			}
			if sumDeg > 0 {
				waveCost *= 1 + sumDeg/float64(a)
			}
		}
		if !math.IsInf(ownPressure, 1) {
			sumP := 0.0
			base := se * topo.CUsPerSE
			for w := sb; w != 0; w &= w - 1 {
				sumP += d.pressure[base+bits.TrailingZeros64(w)]
			}
			avgP := sumP / float64(a)
			other := avgP - ownPressure
			if other < 0 {
				other = 0
			}
			stretch := 1 + d.Spec.ShareTax*other
			if avgP > 1 {
				stretch += (1 + d.Spec.InterferenceTax) * (avgP - 1)
			}
			waveCost *= stretch
		}
		if waveCost > worst {
			worst = waveCost
		}
	}
	compute := sim.Duration(worst) * work.WGTime
	var mem sim.Duration
	if work.MemBytes > 0 {
		demand := 1.0
		if !math.IsInf(ownPressure, 1) {
			if others := d.memPressure - ownMem; others > 0 {
				demand += others
			}
		}
		mem = work.MemBytes * demand / d.Spec.MemBandwidth
	}
	t := compute
	if mem > t {
		t = mem
	}
	return t + work.Tail
}

// randomRetimeMask draws a launch mask: a contiguous range (often inside
// one SE, so it misses most co-runners) or a sparse random bitmap spread
// over every SE (so it overlaps nearly all of them).
func randomRetimeMask(rng *rand.Rand, topo Topology) CUMask {
	total := topo.TotalCUs()
	if rng.Intn(2) == 0 {
		return RangeMask(topo, rng.Intn(total), 1+rng.Intn(total))
	}
	var m CUMask
	density := 0.1 + 0.6*rng.Float64()
	for cu := 0; cu < total; cu++ {
		if rng.Float64() < density {
			m = m.Set(cu)
		}
	}
	if m.IsEmpty() {
		m = m.Set(rng.Intn(total))
	}
	return m
}

// runRetimeOracle drives a device through a random schedule of launches
// (some chained from completions, so Exec objects recycle), CU kills and
// degrade changes, and after every engine event checks each running
// kernel's cached duration and pending completion time against a
// from-scratch evaluation with ==.
func runRetimeOracle(t testing.TB, seed int64, spec DeviceSpec, mem bool, launches int) {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.New()
	d := NewDevice(eng, spec, nil)
	topo := spec.Topo
	randWork := func() KernelWork {
		w := KernelWork{
			Workgroups:   1 + rng.Intn(4000),
			ThreadsPerWG: 256,
			WGTime:       sim.Duration(1+rng.Intn(40)) * 0.7,
			Tail:         0.5,
			WaveExponent: []float64{0, 0.5, 0.65, 1}[rng.Intn(4)],
		}
		if mem && rng.Intn(3) > 0 {
			w.MemBytes = float64(1+rng.Intn(200)) * 1e5
		}
		return w
	}
	for i := 0; i < launches; i++ {
		work, mask := randWork(), randomRetimeMask(rng, topo)
		var chained func()
		if rng.Intn(3) == 0 {
			next, nextMask := randWork(), randomRetimeMask(rng, topo)
			chained = func() { d.Launch(next, nextMask, nil) }
		}
		eng.At(sim.Time(rng.Intn(400)), func() { d.Launch(work, mask, chained) })
	}
	for i := 0; i < launches/4; i++ {
		cu := rng.Intn(topo.TotalCUs())
		at := sim.Time(rng.Intn(400))
		switch rng.Intn(3) {
		case 0:
			eng.At(at, func() { d.KillCU(cu) })
		case 1:
			stretch := 0.25 + rng.Float64()
			eng.At(at, func() { d.SetCUDegrade(cu, stretch) })
		default:
			eng.At(at, func() { d.SetCUDegrade(cu, 0) })
		}
	}
	events := 0
	for eng.Step() {
		events++
		for _, x := range d.running {
			want := refDuration(d, x.work, x.mask, x.pressure, x.memIntensity)
			if x.curTotal != want {
				t.Fatalf("seed %d event %d: kernel %d cached duration %v, full model %v",
					seed, events, x.id, x.curTotal, want)
			}
			if finish := x.lastUpdate + x.remaining*x.curTotal; x.done == nil || x.done.At() != finish {
				t.Fatalf("seed %d event %d: kernel %d completion not at %v", seed, events, x.id, finish)
			}
		}
	}
	if d.Running() != 0 {
		t.Fatalf("seed %d: %d kernels still running after drain", seed, d.Running())
	}
}

func TestIncrementalRetimeExact(t *testing.T) {
	specs := []struct {
		name string
		spec DeviceSpec
	}{{"MI50", MI50Spec()}, {"MI100", MI100Spec()}}
	for _, s := range specs {
		for _, mem := range []bool{false, true} {
			for seed := int64(1); seed <= 20; seed++ {
				runRetimeOracle(t, seed, s.spec, mem, 60)
			}
		}
	}
}

// TestSoloDurationMatchesFullModel pins the solo path (Duration and
// IsolatedDuration) to the same single-pass model, degraded CUs included.
func TestSoloDurationMatchesFullModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, spec := range []DeviceSpec{MI50Spec(), MI100Spec()} {
		d := NewDevice(sim.New(), spec, nil)
		for i := 0; i < 500; i++ {
			if i == 250 {
				d.SetCUDegrade(rng.Intn(spec.Topo.TotalCUs()), 0.8)
			}
			work := KernelWork{
				Workgroups:   1 + rng.Intn(20000),
				WGTime:       sim.Duration(1 + rng.Intn(50)),
				MemBytes:     float64(rng.Intn(2)) * float64(rng.Intn(1000)) * 1e5,
				Tail:         0.5,
				WaveExponent: []float64{0, 0.65, 1}[rng.Intn(3)],
			}
			mask := randomRetimeMask(rng, spec.Topo)
			want := refDuration(d, work, mask, math.Inf(1), 0)
			if got := d.IsolatedDuration(work, mask); got != want {
				t.Fatalf("solo duration %v, full model %v for %+v on %v", got, want, work, mask)
			}
		}
	}
}

// FuzzRetime runs the incremental-retime oracle over fuzzed schedules.
func FuzzRetime(f *testing.F) {
	f.Add(int64(1), false, false)
	f.Add(int64(7), true, true)
	f.Add(int64(42), false, true)
	f.Add(int64(-3), true, false)
	f.Fuzz(func(t *testing.T, seed int64, mi100, mem bool) {
		spec := MI50Spec()
		if mi100 {
			spec = MI100Spec()
		}
		runRetimeOracle(t, seed, spec, mem, 30)
	})
}
