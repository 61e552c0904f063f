package gpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"krisp/internal/sim"
)

func newTestDevice() (*sim.Engine, *Device) {
	eng := sim.New()
	return eng, NewDevice(eng, MI50Spec(), nil)
}

// computeKernel is CU-bound: no memory traffic.
func computeKernel(wgs int) KernelWork {
	return KernelWork{Workgroups: wgs, ThreadsPerWG: 256, WGTime: 10, Tail: 1}
}

func TestDeviceSingleKernelDuration(t *testing.T) {
	_, d := newTestDevice()
	// 600 WGs on 60 CUs with 10 slots: each CU gets 10 WGs = 1 wave.
	work := computeKernel(600)
	got := d.IsolatedDuration(work, FullMask(MI50))
	want := sim.Duration(1*10 + 1)
	if got != want {
		t.Errorf("duration = %v, want %v", got, want)
	}
	// 601 WGs spills into a half wave: 1.5 x 10 + 1.
	got = d.IsolatedDuration(computeKernel(601), FullMask(MI50))
	want = sim.Duration(1.5*10 + 1)
	if got != want {
		t.Errorf("601-WG duration = %v, want %v", got, want)
	}
}

func TestDeviceWaveQuantizationTolerance(t *testing.T) {
	// A 120-WG kernel fits in one wave on any single-SE mask of >= 12 CUs:
	// this is the mechanism behind low minimum-required-CU kernels.
	_, d := newTestDevice()
	work := computeKernel(120)
	full := d.IsolatedDuration(work, FullMask(MI50))
	for n := 12; n <= 15; n++ {
		m := RangeMask(MI50, 0, n) // n CUs inside SE0
		if got := d.IsolatedDuration(work, m); got != full {
			t.Errorf("%d CUs: duration %v != full-GPU %v", n, got, full)
		}
	}
	// 11 CUs forces a second wave.
	if got := d.IsolatedDuration(work, RangeMask(MI50, 0, 11)); got <= full {
		t.Errorf("11 CUs: duration %v not slower than full %v", got, full)
	}
}

func TestDeviceSEImbalanceBottleneck(t *testing.T) {
	// Packed 16 CUs = SE0 full + 1 CU in SE1. Workgroups split equally
	// across the two used SEs, so the single CU in SE1 dominates.
	_, d := newTestDevice()
	work := computeKernel(1200)
	packed := CUMask{}
	for cu := 0; cu < 16; cu++ {
		packed = packed.Set(cu)
	}
	conserved := CUMask{}.
		Or(RangeMask(MI50, 0, 8)).
		Or(RangeMask(MI50, 15, 8)) // 8+8 across two SEs
	tPacked := d.IsolatedDuration(work, packed)
	tCons := d.IsolatedDuration(work, conserved)
	if tPacked <= tCons {
		t.Errorf("packed 16 (%v) should be slower than balanced 16 (%v)", tPacked, tCons)
	}
	// The single CU in SE1 handles 600 WGs = 60 waves.
	want := sim.Duration(60*10 + 1)
	if tPacked != want {
		t.Errorf("packed duration = %v, want %v", tPacked, want)
	}
}

func TestDeviceMemoryBoundKernel(t *testing.T) {
	_, d := newTestDevice()
	// 1 GB of traffic at 1 TB/s = 1000 us, far above compute time.
	work := KernelWork{Workgroups: 600, ThreadsPerWG: 256, WGTime: 1, MemBytes: 1e9, Tail: 1}
	full := d.IsolatedDuration(work, FullMask(MI50))
	small := d.IsolatedDuration(work, RangeMask(MI50, 0, 4))
	if full != small {
		t.Errorf("bandwidth-bound kernel should be CU-insensitive: full=%v small=%v", full, small)
	}
	if full < 1000 {
		t.Errorf("duration %v below memory time 1000", full)
	}
}

func TestDeviceLaunchCompletion(t *testing.T) {
	eng, d := newTestDevice()
	doneAt := sim.Time(-1)
	work := computeKernel(600)
	d.Launch(work, FullMask(MI50), func() { doneAt = eng.Now() })
	if d.Running() != 1 {
		t.Fatalf("Running = %d, want 1", d.Running())
	}
	if d.BusyCUs() != 60 {
		t.Fatalf("BusyCUs = %d, want 60", d.BusyCUs())
	}
	eng.Run()
	if doneAt != 11 {
		t.Errorf("completion at %v, want 11", doneAt)
	}
	if d.Running() != 0 || d.BusyCUs() != 0 {
		t.Error("device not idle after completion")
	}
	for cu := 0; cu < 60; cu++ {
		if d.KernelCount(cu) != 0 {
			t.Fatalf("counter for CU %d = %d after completion", cu, d.KernelCount(cu))
		}
	}
}

func TestDeviceContentionSlowsSharedCUs(t *testing.T) {
	eng, d := newTestDevice()
	work := computeKernel(600) // 11us alone on full GPU
	var t1, t2 sim.Time
	d.Launch(work, FullMask(MI50), func() { t1 = eng.Now() })
	d.Launch(work, FullMask(MI50), func() { t2 = eng.Now() })
	eng.Run()
	// Two identical fully-occupying compute kernels sharing every CU:
	// total pressure 2.0, so each stretches by the share tax on the
	// co-runner (1 + 0.25x1) plus the saturation penalty
	// ((1+1.0)x(2-1)): 10 x 3.25 + 1 = 33.5us.
	if t1 != 33.5 || t2 != 33.5 {
		t.Errorf("shared completions at %v, %v, want 33.5, 33.5", t1, t2)
	}
}

func TestDeviceIsolatedPartitionsDoNotInterfere(t *testing.T) {
	eng, d := newTestDevice()
	work := computeKernel(150) // 15 CUs x 10 slots = 1 wave on one SE
	var t1, t2 sim.Time
	d.Launch(work, RangeMask(MI50, 0, 15), func() { t1 = eng.Now() })
	d.Launch(work, RangeMask(MI50, 15, 15), func() { t2 = eng.Now() })
	eng.Run()
	if t1 != 11 || t2 != 11 {
		t.Errorf("isolated completions at %v, %v, want 11, 11", t1, t2)
	}
}

func TestDeviceProgressBankingAcrossContentionChange(t *testing.T) {
	eng, d := newTestDevice()
	long := computeKernel(600 * 10) // 100us alone
	short := computeKernel(600)     // 11us alone
	var longDone sim.Time
	d.Launch(long, FullMask(MI50), func() { longDone = eng.Now() })
	// At t=50, the long kernel is half done; launch a contender.
	eng.At(50, func() {
		d.Launch(short, FullMask(MI50), nil)
	})
	eng.Run()
	// Long kernel: 50us at full speed (progress 50/101), then slowed 2x
	// while the short kernel runs, then full speed again. It must finish
	// strictly later than 101us and earlier than 202us.
	if longDone <= 101 || longDone >= 202 {
		t.Errorf("long kernel finished at %v, want within (101, 202)", longDone)
	}
}

func TestDeviceMemBandwidthSharing(t *testing.T) {
	eng, d := newTestDevice()
	work := KernelWork{Workgroups: 60, ThreadsPerWG: 256, WGTime: 1, MemBytes: 1e8, Tail: 0}
	// Alone: 100us of memory time.
	if got := d.IsolatedDuration(work, FullMask(MI50)); got != 100 {
		t.Fatalf("isolated mem duration = %v, want 100", got)
	}
	var t1, t2 sim.Time
	d.Launch(work, RangeMask(MI50, 0, 30), func() { t1 = eng.Now() })
	d.Launch(work, RangeMask(MI50, 30, 30), func() { t2 = eng.Now() })
	eng.Run()
	// Two bandwidth-bound kernels on disjoint CUs still (nearly) halve
	// each other's bandwidth: demand weighting gives each a share of
	// 1/(1+0.99) since each is 99% memory-intense.
	if t1 < 190 || t1 > 202 || t1 != t2 {
		t.Errorf("completions at %v, %v, want ~199 each", t1, t2)
	}
}

func TestDeviceCountersTrackOverlap(t *testing.T) {
	eng, d := newTestDevice()
	d.Launch(computeKernel(600), RangeMask(MI50, 0, 10), nil)
	d.Launch(computeKernel(600), RangeMask(MI50, 5, 10), nil)
	if got := d.KernelCount(7); got != 2 {
		t.Errorf("overlapped CU counter = %d, want 2", got)
	}
	if got := d.KernelCount(2); got != 1 {
		t.Errorf("exclusive CU counter = %d, want 1", got)
	}
	if got := d.BusyCUs(); got != 15 {
		t.Errorf("BusyCUs = %d, want 15", got)
	}
	eng.Run()
}

func TestDeviceAvgBusyCUs(t *testing.T) {
	eng, d := newTestDevice()
	// One kernel occupying 30 CUs for 11us, then idle until t=22.
	d.Launch(computeKernel(300), RangeMask(MI50, 0, 30), nil)
	eng.Run()
	eng.RunUntil(22)
	avg := d.AvgBusyCUs()
	// 30 CUs x 11us / 22us = 15.
	if avg < 14.9 || avg > 15.1 {
		t.Errorf("AvgBusyCUs = %v, want ~15", avg)
	}
}

type recordingMeter struct {
	observations int
	lastBusy     int
}

func (m *recordingMeter) ObserveState(now sim.Time, busyCUs, kernels int) {
	m.observations++
	m.lastBusy = busyCUs
}

func TestDeviceMeterNotified(t *testing.T) {
	eng := sim.New()
	meter := &recordingMeter{}
	d := NewDevice(eng, MI50Spec(), meter)
	d.Launch(computeKernel(600), FullMask(MI50), nil)
	if meter.observations != 1 || meter.lastBusy != 60 {
		t.Errorf("after launch: obs=%d busy=%d", meter.observations, meter.lastBusy)
	}
	eng.Run()
	if meter.observations != 2 || meter.lastBusy != 0 {
		t.Errorf("after completion: obs=%d busy=%d", meter.observations, meter.lastBusy)
	}
}

func TestDeviceLaunchPanics(t *testing.T) {
	_, d := newTestDevice()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty mask", func() { d.Launch(computeKernel(10), CUMask{}, nil) })
	mustPanic("zero workgroups", func() { d.Launch(KernelWork{}, FullMask(MI50), nil) })
}

// Property: on an idle device, adding a CU to an SE that the mask already
// uses never increases kernel duration.
func TestDeviceMonotoneWithinSEProperty(t *testing.T) {
	_, d := newTestDevice()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		work := computeKernel(1 + rng.Intn(4000))
		se := rng.Intn(4)
		n := 1 + rng.Intn(14) // 1..14 CUs, room to add one
		m := RangeMask(MI50, se*15, n)
		bigger := m.Set(se*15 + n)
		return d.IsolatedDuration(work, bigger) <= d.IsolatedDuration(work, m)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: duration is positive and completing N launched kernels returns
// all counters to zero.
func TestDeviceCounterConservationProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		eng, d := newTestDevice()
		count := int(n%6) + 1
		for i := 0; i < count; i++ {
			wgs := 1 + rng.Intn(2000)
			lo := rng.Intn(60)
			width := 1 + rng.Intn(30)
			d.Launch(computeKernel(wgs), RangeMask(MI50, lo, width), nil)
		}
		eng.Run()
		if d.Running() != 0 {
			return false
		}
		for cu := 0; cu < 60; cu++ {
			if d.KernelCount(cu) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPlanesTrackRunningKernels drives devices through random launches,
// completions and CU kills and checks the bit-plane Resource Monitor after
// every event against a count of the running kernels: each CU's counter is
// the number of running kernels whose (current) mask holds it, BusyCUs the
// number of CUs with a non-zero counter, and the live Planes view agrees.
// An over-release must still panic.
func TestPlanesTrackRunningKernels(t *testing.T) {
	for _, spec := range []DeviceSpec{MI50Spec(), MI100Spec()} {
		rng := rand.New(rand.NewSource(int64(spec.Topo.TotalCUs())))
		eng := sim.New()
		d := NewDevice(eng, spec, nil)
		total := spec.Topo.TotalCUs()
		running := map[int]*Exec{}
		check := func(event string) {
			t.Helper()
			if d.Running() != len(running) {
				t.Fatalf("%s: device runs %d kernels, want %d", event, d.Running(), len(running))
			}
			busy := 0
			for cu := 0; cu < total; cu++ {
				want := 0
				for _, x := range running {
					if x.Mask().Has(cu) {
						want++
					}
				}
				if want > 0 {
					busy++
				}
				if got := d.KernelCount(cu); got != want {
					t.Fatalf("%s: CU %d counter = %d, want %d", event, cu, got, want)
				}
				if got := d.Planes().Occupied().Has(cu); got != (want > 0) {
					t.Fatalf("%s: CU %d occupied = %v with %d kernels", event, cu, got, want)
				}
			}
			if d.BusyCUs() != busy {
				t.Fatalf("%s: BusyCUs = %d, want %d", event, d.BusyCUs(), busy)
			}
		}
		for i := 0; i < 2000; i++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(running) == 0:
				key := i
				running[key] = d.Launch(computeKernel(1+rng.Intn(2000)), randomRetimeMask(rng, spec.Topo),
					func() { delete(running, key) })
				check("launch")
			case r < 9:
				eng.Step()
				check("complete")
			default:
				d.KillCU(rng.Intn(total))
				check("kill")
			}
		}
		eng.Run()
		check("drain")
	}

	_, d := newTestDevice()
	d.Launch(computeKernel(60), RangeMask(MI50, 0, 15), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a CU with no kernels did not panic")
		}
	}()
	d.releaseExec(RangeMask(MI50, 10, 10), 0)
}
