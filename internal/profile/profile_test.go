package profile

import (
	"bytes"
	"testing"
	"testing/quick"

	"krisp/internal/gpu"
	"krisp/internal/kernels"
)

func newProfiler() *Profiler { return New(DefaultConfig()) }

func TestKernelMinCUSizedCompute(t *testing.T) {
	p := newProfiler()
	// SizedCompute(target=n) issues n*slots workgroups: one wave at >= n
	// CUs, two waves below — the minCU should land exactly on the target
	// (within single-SE targets where Conserved is exact).
	for _, target := range []int{4, 8, 12, 15} {
		d := kernels.SizedCompute("k", target, 10, 1, 50)
		if got := p.KernelMinCU(d.Work); got != target {
			t.Errorf("SizedCompute(%d): minCU = %d", target, got)
		}
	}
}

func TestKernelMinCUMultiSETargets(t *testing.T) {
	p := newProfiler()
	// Multi-SE targets land close to (not always exactly on) the target
	// because Conserved splits across SEs.
	for _, target := range []int{20, 26, 32, 40, 52} {
		d := kernels.SizedCompute("k", target, 10, 1, 50)
		got := p.KernelMinCU(d.Work)
		if got < target-4 || got > target+4 {
			t.Errorf("SizedCompute(%d): minCU = %d, want within +-4", target, got)
		}
	}
}

func TestMemoryBoundKernelTolerant(t *testing.T) {
	p := newProfiler()
	d := kernels.Elementwise(32*64*112*112, 2)
	if got := p.KernelMinCU(d.Work); got > 8 {
		t.Errorf("elementwise minCU = %d, want <= 8 (bandwidth-bound)", got)
	}
}

func TestLargeConvNeedsWholeGPU(t *testing.T) {
	p := newProfiler()
	// vgg19-class conv: many waves at full GPU, so any CU reduction hurts.
	d := kernels.Conv2D(32, 256, 56, 56, 256, 3, 1)
	if got := p.KernelMinCU(d.Work); got < 50 {
		t.Errorf("large conv minCU = %d, want >= 50", got)
	}
}

func TestLaunchOverheadDominatesTinyKernels(t *testing.T) {
	p := newProfiler()
	d := kernels.Softmax(64, 64) // tiny: 16 WGs
	if got := p.KernelMinCU(d.Work); got > 4 {
		t.Errorf("tiny softmax minCU = %d, want <= 4 (launch-dominated)", got)
	}
}

func TestModelLatencyIsSumOfKernels(t *testing.T) {
	p := newProfiler()
	a := kernels.SizedCompute("a", 10, 10, 1, 50)
	b := kernels.Elementwise(1<<20, 2)
	sum := p.KernelLatency(a.Work, 60) + p.KernelLatency(b.Work, 60)
	if got := p.ModelLatency([]kernels.Desc{a, b}, 60); got != sum {
		t.Errorf("ModelLatency = %v, want %v", got, sum)
	}
}

func TestModelRightSizeDominatedByHeavyKernels(t *testing.T) {
	p := newProfiler()
	// A model whose time is dominated by a 12-CU kernel plus brief 60-CU
	// spikes should right-size near 12, not 60 — the paper's albert story.
	model := []kernels.Desc{
		kernels.SizedCompute("dominant", 12, 10, 40, 50), // 40 waves x 50us
		kernels.SizedCompute("spike", 60, 10, 1, 2),      // brief full-GPU kernel
	}
	rs := p.ModelRightSize(model)
	if rs > 20 {
		t.Errorf("right-size = %d, want <= 20 (dominant kernel needs 12)", rs)
	}
	// And a model dominated by full-GPU kernels right-sizes near 60.
	model = []kernels.Desc{kernels.SizedCompute("big", 60, 10, 10, 50)}
	if rs := p.ModelRightSize(model); rs < 55 {
		t.Errorf("full-GPU model right-size = %d, want >= 55", rs)
	}
}

func TestCUSweepShape(t *testing.T) {
	p := newProfiler()
	model := []kernels.Desc{kernels.SizedCompute("k", 12, 10, 4, 50)}
	sweep := p.CUSweep(model)
	if len(sweep) != 60 {
		t.Fatalf("sweep has %d points, want 60", len(sweep))
	}
	last := sweep[59]
	if last.CUs != 60 || last.Throughput < 0.999 || last.Throughput > 1.001 {
		t.Errorf("full-GPU point = %+v, want throughput 1.0", last)
	}
	// Throughput at 1 CU must be far below 1.
	if sweep[0].Throughput > 0.5 {
		t.Errorf("1-CU throughput = %v, want < 0.5", sweep[0].Throughput)
	}
	// Latency at the plateau equals the full-GPU latency.
	if sweep[30].Latency > last.Latency*(1+p.cfg.Tolerance) {
		t.Errorf("31-CU latency %v above tolerance of full %v", sweep[30].Latency, last.Latency)
	}
}

func TestDBProfileAndLookup(t *testing.T) {
	p := newProfiler()
	descs := []kernels.Desc{
		kernels.SizedCompute("a", 12, 10, 1, 50),
		kernels.Elementwise(1<<22, 2),
		kernels.GEMM(32, 512, 512, 512),
	}
	db := NewDB()
	db.Profile(p, descs)
	if db.Len() != 3 {
		t.Fatalf("db has %d entries, want 3", db.Len())
	}
	for _, d := range descs {
		e, ok := db.Lookup(d.Key())
		if !ok {
			t.Fatalf("missing entry for %s", d.Key())
		}
		if e.MinCU < 1 || e.MinCU > 60 {
			t.Errorf("%s: minCU %d out of range", d.Key(), e.MinCU)
		}
		if e.FullLatency <= 0 {
			t.Errorf("%s: non-positive latency", d.Key())
		}
		if got := db.MinCU(&d, 60); got != e.MinCU {
			t.Errorf("MinCU(%s) = %d, want %d", d.Key(), got, e.MinCU)
		}
	}
	// Unknown kernels fall back to the whole device.
	unknown := kernels.SizedCompute("never-profiled", 5, 10, 1, 1)
	if got := db.MinCU(&unknown, 60); got != 60 {
		t.Errorf("unknown kernel MinCU = %d, want 60", got)
	}
}

func TestDBWorstCaseWins(t *testing.T) {
	db := NewDB()
	db.Add(Entry{Key: "k", MinCU: 30})
	db.Add(Entry{Key: "k", MinCU: 10}) // lower value must not overwrite
	if e, _ := db.Lookup("k"); e.MinCU != 30 {
		t.Errorf("MinCU = %d, want 30", e.MinCU)
	}
	db.Add(Entry{Key: "k", MinCU: 45})
	if e, _ := db.Lookup("k"); e.MinCU != 45 {
		t.Errorf("MinCU = %d, want 45", e.MinCU)
	}
}

func TestDBSaveLoadRoundTrip(t *testing.T) {
	p := newProfiler()
	db := NewDB()
	db.Profile(p, []kernels.Desc{
		kernels.GEMM(32, 512, 512, 512),
		kernels.BatchNorm(32, 64, 56, 56),
	})
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("loaded %d entries, want %d", loaded.Len(), db.Len())
	}
	for _, e := range db.Entries() {
		le, ok := loaded.Lookup(e.Key)
		if !ok || le != e {
			t.Errorf("entry %s did not round-trip: %+v vs %+v", e.Key, e, le)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Error("Load accepted garbage")
	}
}

// TestMI100KernelMinCU: the profiler respects the device it is given — a
// kernel sized for 90 CUs knees near 90 on the MI100, a size that does
// not exist on the MI50.
func TestMI100KernelMinCU(t *testing.T) {
	p := New(Config{Spec: gpu.MI100Spec(), Tolerance: 0.05, LaunchOverhead: 6})
	d := kernels.SizedCompute("k", 90, 10, 1, 50)
	got := p.KernelMinCU(d.Work)
	if got < 85 || got > 96 {
		t.Errorf("MI100 minCU = %d, want ~90", got)
	}
	// The same kernel saturates the whole MI50.
	p50 := newProfiler()
	if got := p50.KernelMinCU(d.Work); got < 55 {
		t.Errorf("MI50 minCU = %d, want ~60 (saturated)", got)
	}
}

// Property: minCU is always in [1, 60], and latency at the minCU partition
// really is within tolerance of the full-GPU latency.
func TestMinCUDefinitionProperty(t *testing.T) {
	p := newProfiler()
	prop := func(wg16 uint16, mem uint8) bool {
		wgs := int(wg16)%5000 + 1
		work := gpu.KernelWork{
			Workgroups:   wgs,
			ThreadsPerWG: 256,
			WGTime:       5,
			MemBytes:     float64(mem) * 1e6,
			Tail:         0.5,
		}
		m := p.KernelMinCU(work)
		if m < 1 || m > 60 {
			return false
		}
		full := p.KernelLatency(work, 60)
		return p.KernelLatency(work, m) <= full*(1+p.cfg.Tolerance)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
