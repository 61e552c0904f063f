package server

import (
	"testing"

	"krisp/internal/alloc"
	"krisp/internal/gpu"
	"krisp/internal/policies"
)

func TestMeasureScaleShrinksWindow(t *testing.T) {
	m := mustModel(t, "squeezenet")
	full := Run(Config{
		Policy:  policies.MPSDefault,
		Workers: []WorkerSpec{{Model: m, Batch: 32}},
		Seed:    5,
	})
	quarter := Run(Config{
		Policy:       policies.MPSDefault,
		Workers:      []WorkerSpec{{Model: m, Batch: 32}},
		Seed:         5,
		MeasureScale: 0.25,
	})
	if quarter.WindowUs >= full.WindowUs {
		t.Fatalf("scaled window %v not below full %v", quarter.WindowUs, full.WindowUs)
	}
	// Throughput estimates should agree within a few percent despite the
	// shorter window.
	ratio := quarter.RPS / full.RPS
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("quarter-window RPS off by %.2fx", ratio)
	}
}

func TestExplicitWindowRespected(t *testing.T) {
	m := mustModel(t, "squeezenet")
	res := Run(Config{
		Policy:  policies.MPSDefault,
		Workers: []WorkerSpec{{Model: m, Batch: 32}},
		Seed:    5,
		Warmup:  10_000,
		Measure: 50_000,
	})
	if res.WindowUs != 50_000 {
		t.Errorf("WindowUs = %v, want 50000", res.WindowUs)
	}
}

func TestOverlapLimitOverride(t *testing.T) {
	m := mustModel(t, "squeezenet")
	specs := []WorkerSpec{
		{Model: m, Batch: 32}, {Model: m, Batch: 32},
		{Model: m, Batch: 32}, {Model: m, Batch: 32},
	}
	// KRISP-I with the limit overridden to "everything may overlap" must
	// behave like KRISP-O.
	limit := alloc.NoOverlapLimit
	overridden := Run(Config{Policy: policies.KRISPI, Workers: specs, Seed: 5, OverlapLimit: &limit})
	krispO := Run(Config{Policy: policies.KRISPO, Workers: specs, Seed: 5})
	ratio := overridden.RPS / krispO.RPS
	if ratio < 0.98 || ratio > 1.02 {
		t.Errorf("override-to-NoLimit RPS differs from KRISP-O by %.3fx", ratio)
	}
}

func TestJitterDisabled(t *testing.T) {
	m := mustModel(t, "squeezenet")
	res := Run(Config{
		Policy:  policies.MPSDefault,
		Workers: []WorkerSpec{{Model: m, Batch: 32}},
		Seed:    5,
		Jitter:  -1, // disabled
	})
	w := res.Workers[0]
	// Without jitter every batch latency is identical, so p95 == min.
	if w.BatchLatency.Len() < 5 {
		t.Fatalf("only %d batches measured", w.BatchLatency.Len())
	}
	// Identical up to float accumulation noise in the event engine.
	if diff := w.BatchLatency.P95() - w.BatchLatency.Min(); diff > 1e-6 {
		t.Errorf("jitter-free p95 %v != min %v", w.BatchLatency.P95(), w.BatchLatency.Min())
	}
}

func TestDifferentSeedsDifferentTails(t *testing.T) {
	m := mustModel(t, "squeezenet")
	a := Run(Config{Policy: policies.MPSDefault, Workers: []WorkerSpec{{Model: m, Batch: 32}}, Seed: 1})
	b := Run(Config{Policy: policies.MPSDefault, Workers: []WorkerSpec{{Model: m, Batch: 32}}, Seed: 2})
	if a.Workers[0].P95() == b.Workers[0].P95() {
		t.Error("different seeds produced identical p95 — jitter not applied")
	}
}

func TestBuildDBCoversAllWorkers(t *testing.T) {
	a := mustModel(t, "albert")
	s := mustModel(t, "squeezenet")
	db := BuildDB(gpu.MI50Spec(), []WorkerSpec{{Model: a, Batch: 32}, {Model: s, Batch: 32}})
	if db.Len() == 0 {
		t.Fatal("empty database")
	}
	for _, d := range a.Kernels(32) {
		if got := db.MinCU(&d, 60); got == 60 && d.Work.Workgroups < 600 {
			// 60 is also the unprofiled fallback — a small kernel
			// reporting 60 means profiling missed it.
			t.Fatalf("kernel %s appears unprofiled (minCU=60, %d WGs)", d.Key(), d.Work.Workgroups)
		}
	}
}
