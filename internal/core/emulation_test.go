package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"krisp/internal/alloc"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/kernels"
	"krisp/internal/profile"
	"krisp/internal/sim"
	"krisp/internal/trace"
)

// TestEmulatedKernelNeverRacesMaskChange verifies the purpose of the
// second barrier packet (Fig. 11b step 6): the kernel must never begin
// executing before its queue's CU mask reconfiguration has been applied,
// even with multiple queues serializing their IOCTLs.
func TestEmulatedKernelNeverRacesMaskChange(t *testing.T) {
	descs := []kernels.Desc{
		kernels.SizedCompute("a", 5, 10, 1, 40),
		kernels.SizedCompute("b", 30, 10, 1, 40),
		kernels.SizedCompute("c", 12, 10, 1, 40),
	}
	eng := sim.New()
	dev := gpu.NewDevice(eng, gpu.MI50Spec(), nil)
	cp := hsa.NewCommandProcessor(eng, dev, hsa.DefaultConfig())
	db := profile.NewDB()
	db.Profile(profile.New(profile.DefaultConfig()), descs)
	rs := NewRightSizer(db, 60)

	// Three concurrent emulated streams: IOCTLs serialize globally, so
	// without the second barrier a kernel could launch under a stale
	// mask.
	var traces []*trace.Trace
	for q := 0; q < 3; q++ {
		tr := &trace.Trace{}
		traces = append(traces, tr)
		rt := NewRuntime(eng, cp, cp.NewQueue(), rs, Config{
			Mode:         ModeEmulated,
			OverlapLimit: alloc.NoOverlapLimit,
			Trace:        tr,
		})
		rt.RunSequence(descs, nil)
	}
	eng.Run()
	for qi, tr := range traces {
		if tr.Len() != len(descs) {
			t.Fatalf("queue %d traced %d kernels, want %d", qi, tr.Len(), len(descs))
		}
		for _, r := range tr.Records() {
			want := rs.Size(mustDesc(descs, r.Kernel))
			if r.AllocatedCUs != want {
				t.Errorf("queue %d kernel %s ran with %d CUs, want %d (stale mask race)",
					qi, r.Kernel, r.AllocatedCUs, want)
			}
		}
	}
}

func mustDesc(descs []kernels.Desc, name string) *kernels.Desc {
	for i := range descs {
		if descs[i].Name == name {
			return &descs[i]
		}
	}
	panic("unknown kernel " + name)
}

// Property: in native mode the traced allocation never exceeds the
// requested partition and the trace is complete and ordered.
func TestNativeTraceProperty(t *testing.T) {
	prop := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%20) + 1
		descs := make([]kernels.Desc, n)
		for i := range descs {
			descs[i] = kernels.SizedCompute("k", 1+rng.Intn(60), 10, 1, sim.Duration(1+rng.Intn(30)))
		}
		eng := sim.New()
		dev := gpu.NewDevice(eng, gpu.MI50Spec(), nil)
		cfg := hsa.DefaultConfig()
		cfg.KernelScoped = true
		cp := hsa.NewCommandProcessor(eng, dev, cfg)
		db := profile.NewDB()
		db.Profile(profile.New(profile.DefaultConfig()), descs)
		rs := NewRightSizer(db, 60)
		tr := &trace.Trace{}
		rt := NewRuntime(eng, cp, cp.NewQueue(), rs, Config{
			Mode: ModeNative, OverlapLimit: 0, Trace: tr,
		})
		done := false
		rt.RunSequence(descs, func() { done = true })
		eng.Run()
		if !done || tr.Len() != n {
			return false
		}
		prevEnd := sim.Time(0)
		for i, r := range tr.Records() {
			if r.Seq != i {
				return false
			}
			if r.AllocatedCUs < 1 || r.AllocatedCUs > r.MinCU {
				return false
			}
			if r.Start < prevEnd || r.End < r.Start {
				return false
			}
			prevEnd = r.End
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
