package server

import (
	"reflect"
	"sync"
	"testing"

	"krisp/internal/faults"
	"krisp/internal/models"
	"krisp/internal/policies"
)

// reuseScenarios are the configurations the pooled-node reuse path must
// replay byte-identically: a plain KRISP-I serve, a multi-worker
// multi-GPU contention case, and a chaos run whose fault timeline
// exercises the hardened path (watchdogs, retries, queue resets) on a
// recycled stack.
func reuseScenarios(t *testing.T) map[string]func() Config {
	t.Helper()
	m := mustModel(t, "squeezenet")
	m2 := mustModel(t, "mobilenet")
	return map[string]func() Config{
		"krisp-i": func() Config {
			return Config{
				Policy:  policies.KRISPI,
				Workers: []WorkerSpec{{Model: m, Batch: 32}},
				Seed:    11,
				Warmup:  8_000,
				Measure: 80_000,
			}
		},
		"contended-multigpu": func() Config {
			return Config{
				Policy: policies.KRISPO,
				GPUs:   2,
				Workers: []WorkerSpec{
					{Model: m, Batch: 32}, {Model: m2, Batch: 16},
					{Model: m, Batch: 32}, {Model: m2, Batch: 16},
				},
				Seed:    12,
				Warmup:  10_000,
				Measure: 100_000,
			}
		},
		"chaos": func() Config {
			return Config{
				Policy:  policies.KRISPI,
				Workers: []WorkerSpec{{Model: m, Batch: 32}, {Model: m, Batch: 32}},
				Seed:    13,
				Warmup:  20_000,
				Measure: 150_000,
				Faults: &faults.Plan{
					Seed: 3,
					CUKills: []faults.CUKill{
						{At: 40_000, GPU: 0, CU: 0},
						{At: 40_000, GPU: 0, CU: 1},
					},
					QueueStalls: []faults.QueueStall{
						{At: 80_000, GPU: 0, Queue: 0, Duration: 1e12},
					},
					WatchdogTimeout: 30_000,
				},
			}
		},
	}
}

// stackPool is a deterministic statePool: unlike sync.Pool under the race
// detector (which drops a quarter of Puts by design), every Put is
// retained, so the test can assert the reruns really hit the reset path.
type stackPool struct {
	mu sync.Mutex
	xs []any
}

func (p *stackPool) Get() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.xs); n > 0 {
		x := p.xs[n-1]
		p.xs[n-1] = nil
		p.xs = p.xs[:n-1]
		return x
	}
	return nil
}

func (p *stackPool) Put(x any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.xs = append(p.xs, x)
}

// TestRunReuseDeterministic is the zero-alloc lifecycle's correctness
// oracle: a run on a freshly built node and the same run replayed on a
// pooled node, reset in place with its replicas recycled, must produce
// byte-identical Results — stats, latency samples, energy, and fault
// counters included. Run under -race in CI, this also proves the pool
// hands out exclusive nodes.
func TestRunReuseDeterministic(t *testing.T) {
	defer func(p statePool) { nodePool = p }(nodePool)
	for name, mk := range reuseScenarios(t) {
		t.Run(name, func(t *testing.T) {
			// Empty the pool so the first run builds its node from
			// scratch, and use a deterministic pool so the reruns are
			// guaranteed to hit the reset path.
			nodePool = &stackPool{}
			fresh := Run(mk())
			if fresh.TotalRequests() == 0 {
				t.Fatal("degenerate scenario: nothing completed")
			}
			if n, _ := nodePool.Get().(*Node); n == nil {
				t.Fatal("run did not return its node to the pool")
			} else {
				nodePool.Put(n)
			}
			for i := 0; i < 3; i++ {
				if got := Run(mk()); !reflect.DeepEqual(got, fresh) {
					t.Fatalf("rerun %d on pooled node diverged:\nfresh: %+v\npooled: %+v", i, fresh, got)
				}
			}
			// A shape change must rebuild rather than misuse the pooled
			// node — and the original shape must still replay exactly
			// afterwards.
			other := mk()
			other.GPUs += 1
			Run(other)
			if got := Run(mk()); !reflect.DeepEqual(got, fresh) {
				t.Fatal("run after a shape change diverged from the fresh result")
			}
			// A same-shape run with another workload leaves replicas of
			// other models, batches and count on the free lists; the
			// original must still replay exactly on the recycled node.
			other = mk()
			other.Workers = append([]WorkerSpec{{Model: mustModel(t, "alexnet"), Batch: 8}}, other.Workers...)
			other.Seed++
			Run(other)
			if got := Run(mk()); !reflect.DeepEqual(got, fresh) {
				t.Fatal("run after another workload on the pooled node diverged from the fresh result")
			}
		})
	}
}

// TestNodeReplicaReuseDeterministic drives the fleet's side of the same
// free list: a node whose replicas are drained, released, and respawned
// from the pool must serve exactly like one that builds every replica
// fresh.
func TestNodeReplicaReuseDeterministic(t *testing.T) {
	m, ok := models.ByName("squeezenet")
	if !ok {
		t.Fatal("model missing")
	}
	run := func(release bool) (ReplicaStats, ReplicaStats) {
		n := NewNode(NodeConfig{Seed: 9})
		r1 := n.AddReplica(ReplicaSpec{Model: m, Batch: 8, CUs: 30})
		for i := 0; i < 16; i++ {
			r1.Submit(n.Now())
			n.RunUntil(n.Now() + 5_000)
		}
		r1.Drain()
		n.RunUntil(n.Now() + 50_000)
		if !r1.Drained() {
			t.Fatal("replica did not drain")
		}
		s1 := r1.Stats()
		var buf []Completion
		r1.TakeCompletions(buf)
		if release {
			r1.Release()
		}
		// The respawn must behave identically whether it recycles r1's
		// struct and queue or builds fresh ones.
		r2 := n.AddReplica(ReplicaSpec{Model: m, Batch: 8, CUs: 45})
		for i := 0; i < 16; i++ {
			r2.Submit(n.Now())
			n.RunUntil(n.Now() + 5_000)
		}
		n.RunUntil(n.Now() + 50_000)
		return s1, r2.Stats()
	}
	s1a, s2a := run(false)
	s1b, s2b := run(true)
	if s1a != s1b || s2a != s2b {
		t.Fatalf("released-replica respawn diverged:\nfresh:  %+v / %+v\npooled: %+v / %+v", s1a, s2a, s1b, s2b)
	}
	if s2a.CompletedRequests == 0 {
		t.Fatal("respawned replica served nothing")
	}
}
