package cluster

import (
	"reflect"
	"testing"

	"krisp/internal/cluster/gateway"
	"krisp/internal/faults"
	"krisp/internal/server"
	"krisp/internal/sim"
)

// runReference runs cfg on the lockstep reference: settle advances every
// up node every tick, serially, over the same mailbox transport. The
// scheduler proper must reproduce it byte for byte at any worker count.
func runReference(cfg Config) *Result {
	cfg.Parallel = 1
	f := New(cfg)
	f.everyNode = true
	return f.Run()
}

// matrixScenarios are the configurations the determinism matrix replays
// at every worker count: a faulty bare-router fleet, the gateway chaos
// composition with hedges, retries, breakers and node loss, and a calm
// fleet where most ticks find most nodes idle (the case the wake heap
// actually skips work on).
func matrixScenarios(t *testing.T) map[string]func() Config {
	t.Helper()
	return map[string]func() Config{
		"faults": func() Config {
			cfg := baseConfig(t)
			cfg.Policy = SLOAware
			cfg.NodeFaults = []faults.NodeFault{
				{At: 0, Node: 1, Kind: faults.GPUDegrade, GPU: 0, Stretch: 3.0},
				{At: 140 * sim.Millisecond, Node: 2, Kind: faults.NodeDown,
					Duration: 80 * sim.Millisecond},
			}
			return cfg
		},
		"chaos-gateway": func() Config {
			cfg := chaosConfig(t)
			applyChaos(t, &cfg, "rack-loss")
			applyChaos(t, &cfg, "gray-node")
			cfg.Gateway = &gateway.Config{}
			return cfg
		},
		"sparse": func() Config {
			// Light load on a wide fleet: whole ticks pass with idle nodes,
			// so skipped nodes and lagging clocks (including the final
			// energy fast-forward) are all on the hot path.
			cfg := baseConfig(t)
			cfg.Nodes = 6
			cfg.Workloads = cfg.Workloads[:1]
			return cfg
		},
	}
}

// TestLookaheadLockstepMatrixIdentical is the scheduler's correctness
// oracle: for every scenario, the wake-heap scheduler at every worker
// count must be byte-identical — routing log and full result, energy
// included — to the serial lockstep reference. Run under -race this also
// proves settle rounds share nothing across workers.
func TestLookaheadLockstepMatrixIdentical(t *testing.T) {
	for name, mk := range matrixScenarios(t) {
		t.Run(name, func(t *testing.T) {
			cfg := mk()
			cfg.RecordRouting = true
			oracle := runReference(cfg)
			if oracle.RoutingLog == "" {
				t.Fatal("no routing decisions recorded")
			}
			if oracle.Completed == 0 {
				t.Fatal("degenerate scenario: nothing completed")
			}
			for _, workers := range []int{1, 0, 2, 8} {
				cfg := mk()
				cfg.Parallel = workers
				cfg.RecordRouting = true
				got := Run(cfg)
				if got.RoutingLog != oracle.RoutingLog {
					t.Fatalf("workers=%d: routing log diverged from the lockstep reference", workers)
				}
				if !reflect.DeepEqual(got, oracle) {
					t.Fatalf("workers=%d: results diverged:\nreference: %+v\nscheduler: %+v",
						workers, oracle, got)
				}
			}
		})
	}
}

// TestDurationRoundsToWholeTicks: a Duration that is not a whole number of
// ticks is rounded down in New, so the run simulates exactly the windows
// its router phases cover — a 301 ms run equals the 300 ms run in full,
// energy and reported Duration included. A sub-tick Duration still runs
// one tick.
func TestDurationRoundsToWholeTicks(t *testing.T) {
	cfg := baseConfig(t)
	cfg.RecordRouting = true
	want := Run(cfg)
	cfg.Duration = 301 * sim.Millisecond
	got := Run(cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("301 ms run diverged from 300 ms:\n300: %+v\n301: %+v", want, got)
	}
	cfg.Duration = cfg.Tick / 2
	if d := Run(cfg).Duration; d != cfg.Tick {
		t.Fatalf("sub-tick Duration ran %v, want one tick %v", d, cfg.Tick)
	}
}

// TestSLOAwareWindowOutOfOrderCompletions guards the router's windowed-P95
// state against completion replay order. Completions from different
// replicas interleave in fleet time; the fleet absorbs them sorted by
// (End, handle id). The latency window is per-replica, so the interleave
// must not leak: absorbing the same completions handle-major instead must
// leave every window — and the next SLO-aware pick — unchanged, while
// within one replica the window must still distinguish a slow replica from
// a fast one after the 64-sample ring has wrapped.
func TestSLOAwareWindowOutOfOrderCompletions(t *testing.T) {
	const n = 80 // past the 64-sample window, so eviction order matters
	mkCompl := func(h int, i int) server.Completion {
		lat := sim.Duration(1000 + 200*h) // replica 1 is consistently slower
		arr := sim.Time(i*100 + h*7)
		return server.Completion{Arrival: arr, End: arr + lat}
	}

	absorb := func(order string) (*router, *modelState) {
		r := testRouter(SLOAware)
		m := fakeModel(2)
		switch order {
		case "fleet": // interleaved by (End, id), the pullCompletions order
			for i := 0; i < n; i++ {
				for h := 0; h < 2; h++ {
					r.absorb(m, m.replicas[h], mkCompl(h, i), 0)
				}
			}
		case "handle-major":
			for h := 0; h < 2; h++ {
				for i := 0; i < n; i++ {
					r.absorb(m, m.replicas[h], mkCompl(h, i), 0)
				}
			}
		}
		return r, m
	}

	rf, mf := absorb("fleet")
	rh, mh := absorb("handle-major")
	for h := 0; h < 2; h++ {
		pf, ph := mf.replicas[h].lat.P95(), mh.replicas[h].lat.P95()
		if pf != ph {
			t.Fatalf("replica %d: P95 depends on cross-replica absorb order: %.1f vs %.1f", h, pf, ph)
		}
	}
	if mf.replicas[0].lat.P95() >= mf.replicas[1].lat.P95() {
		t.Fatalf("window lost the slow replica after wraparound: P95 %.1f vs %.1f",
			mf.replicas[0].lat.P95(), mf.replicas[1].lat.P95())
	}
	hf, hh := rf.pick(mf, 0, -1), rh.pick(mh, 0, -1)
	if hf == nil || hh == nil || hf.id != hh.id {
		t.Fatalf("SLO-aware pick depends on absorb interleave: %v vs %v", hf, hh)
	}
	if hf.id != 0 {
		t.Fatalf("picked the slow replica %d", hf.id)
	}
}
