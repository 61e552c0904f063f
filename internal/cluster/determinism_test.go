package cluster

import (
	"reflect"
	"testing"

	"krisp/internal/faults"
	"krisp/internal/sim"
)

// TestSerialParallelIdentical is the fleet determinism guarantee: the same
// seed and trace produce byte-identical per-request routing decisions and
// identical results whether nodes advance serially or on a worker pool.
// Run under -race this also proves node advancement shares nothing.
func TestSerialParallelIdentical(t *testing.T) {
	run := func(workers int) *Result {
		cfg := baseConfig(t)
		cfg.Policy = SLOAware
		cfg.Parallel = workers
		cfg.RecordRouting = true
		cfg.NodeFaults = []faults.NodeFault{
			{At: 0, Node: 1, Kind: faults.GPUDegrade, GPU: 0, Stretch: 3.0},
			{At: 140 * sim.Millisecond, Node: 2, Kind: faults.NodeDown,
				Duration: 80 * sim.Millisecond},
		}
		return Run(cfg)
	}

	serial := run(1)
	if serial.RoutingLog == "" {
		t.Fatal("no routing decisions recorded")
	}
	for _, workers := range []int{0, 2, 8} {
		par := run(workers)
		if par.RoutingLog != serial.RoutingLog {
			t.Fatalf("workers=%d: routing log diverged from serial run", workers)
		}
		if !reflect.DeepEqual(par, serial) {
			t.Fatalf("workers=%d: results diverged:\nserial: %+v\nparallel: %+v",
				workers, serial, par)
		}
	}
}

// TestSeedChangesOutcome guards against the opposite failure: a fleet that
// ignores its seed would make determinism vacuous.
func TestSeedChangesOutcome(t *testing.T) {
	a := func() *Result {
		cfg := baseConfig(t)
		cfg.RecordRouting = true
		return Run(cfg)
	}()
	cfg := baseConfig(t)
	cfg.Seed = 43
	cfg.RecordRouting = true
	b := Run(cfg)
	if a.RoutingLog == b.RoutingLog {
		t.Fatal("different seeds produced identical routing logs")
	}
}

// TestRepeatedRunsIdentical: two fresh fleets with the same config are
// bit-identical — no hidden global state leaks between runs.
func TestRepeatedRunsIdentical(t *testing.T) {
	mk := func() *Result {
		cfg := baseConfig(t)
		cfg.RecordRouting = true
		return Run(cfg)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated runs diverged:\n%+v\n%+v", a, b)
	}
}
