package hsa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"krisp/internal/gpu"
	"krisp/internal/kernels"
	"krisp/internal/sim"
)

// Property: any interleaving of kernel and barrier packets across several
// queues drains completely, completes every packet exactly once, and
// leaves the device idle.
func TestQueueStressProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.New()
		dev := gpu.NewDevice(eng, gpu.MI50Spec(), nil)
		cfg := DefaultConfig()
		cfg.KernelScoped = rng.Intn(2) == 0
		cp := NewCommandProcessor(eng, dev, cfg)

		nQueues := 1 + rng.Intn(4)
		queues := make([]*Queue, nQueues)
		for i := range queues {
			queues[i] = cp.NewQueue()
		}

		completed := 0
		expected := 0
		var signals []*Signal
		for i := 0; i < 30; i++ {
			q := queues[rng.Intn(nQueues)]
			switch rng.Intn(3) {
			case 0, 1: // kernel
				d := kernels.SizedCompute("k", 1+rng.Intn(60), 10, 1, sim.Duration(1+rng.Intn(20)))
				sig := NewSignal(1)
				sig.OnDone(func() { completed++ })
				signals = append(signals, sig)
				q.Submit(Packet{
					Type:         KernelDispatch,
					Kernel:       &d,
					PartitionCUs: 1 + rng.Intn(60),
					OverlapLimit: rng.Intn(61),
					Completion:   sig,
				})
				expected++
			case 2: // barrier on a random earlier signal
				var deps []*Signal
				if len(signals) > 0 && rng.Intn(2) == 0 {
					deps = []*Signal{signals[rng.Intn(len(signals))]}
				}
				sig := NewSignal(1)
				sig.OnDone(func() { completed++ })
				q.SubmitBarrier(deps, nil, sig)
				expected++
			}
		}
		eng.Run()
		if completed != expected {
			return false
		}
		if dev.Running() != 0 || dev.BusyCUs() != 0 {
			return false
		}
		for _, q := range queues {
			if q.Pending() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: kernels submitted to one queue complete in submission order.
func TestQueueFIFOProperty(t *testing.T) {
	prop := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.New()
		dev := gpu.NewDevice(eng, gpu.MI50Spec(), nil)
		cp := NewCommandProcessor(eng, dev, DefaultConfig())
		q := cp.NewQueue()
		n := int(n8%15) + 2
		var order []int
		for i := 0; i < n; i++ {
			i := i
			d := kernels.SizedCompute("k", 1+rng.Intn(60), 10, 1, sim.Duration(1+rng.Intn(50)))
			q.SubmitKernel(&d, func() { order = append(order, i) })
		}
		eng.Run()
		if len(order) != n {
			return false
		}
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestActiveStreams(t *testing.T) {
	eng := sim.New()
	dev := gpu.NewDevice(eng, gpu.MI50Spec(), nil)
	cp := NewCommandProcessor(eng, dev, DefaultConfig())
	q1 := cp.NewQueue()
	q2 := cp.NewQueue()
	_ = q2
	if got := cp.ActiveStreams(); got != 0 {
		t.Errorf("ActiveStreams = %d on idle queues, want 0", got)
	}
	if got := cp.FairShare(); got != 60 {
		t.Errorf("FairShare = %d with no active streams, want 60", got)
	}
	q1.SubmitKernel(oneWave(), nil)
	if got := cp.ActiveStreams(); got != 1 {
		t.Errorf("ActiveStreams = %d with one busy queue, want 1", got)
	}
	if got := cp.FairShare(); got != 60 {
		t.Errorf("FairShare = %d with one stream, want 60", got)
	}
	q2.SubmitKernel(oneWave(), nil)
	if got := cp.FairShare(); got != 30 {
		t.Errorf("FairShare = %d with two streams, want 30", got)
	}
	eng.Run()
	if got := cp.ActiveStreams(); got != 0 {
		t.Errorf("ActiveStreams = %d after drain, want 0", got)
	}
}

func TestDispatchReportsGrantedMask(t *testing.T) {
	eng := sim.New()
	dev := gpu.NewDevice(eng, gpu.MI50Spec(), nil)
	cfg := DefaultConfig()
	cfg.KernelScoped = true
	cp := NewCommandProcessor(eng, dev, cfg)
	q := cp.NewQueue()
	var granted gpu.CUMask
	q.Submit(Packet{
		Type:         KernelDispatch,
		Kernel:       oneWave(),
		PartitionCUs: 12,
		OnDispatch:   func(m gpu.CUMask) { granted = m },
	})
	eng.Run()
	if granted.Count() != 12 {
		t.Errorf("OnDispatch mask has %d CUs, want 12", granted.Count())
	}
}
