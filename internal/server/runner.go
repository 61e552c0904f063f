package server

import "sync"

// statePool is the interface nodePool is held behind. Production uses
// sync.Pool (exclusive Gets under concurrent runs, idle nodes fall to the
// garbage collector); the reuse-determinism test substitutes a
// stack-backed pool, because under the race detector sync.Pool drops a
// quarter of Puts on purpose and "did the rerun hit the reset path"
// becomes unobservable.
type statePool interface {
	Get() any
	Put(any)
}

// nodePool recycles the paper harness's nodes across Run invocations.
// Pooling drives the serve lifecycle's steady-state allocations toward
// zero: a rerun resets the engine heap, devices, meters and queues in
// place and recycles the previous run's replicas (runtimes, RNGs, kernel
// buffers) instead of rebuilding the stack.
var nodePool statePool = &sync.Pool{}

// acquireNode returns a node for a defaulted configuration: a pooled one
// with the same stack shape, reset in place, when available, a freshly
// built one otherwise. The fault plan is left unarmed. Telemetry runs are
// never pooled — their stack wiring holds per-hub handles.
func acquireNode(cfg NodeConfig) *Node {
	if cfg.Telemetry == nil {
		if v := nodePool.Get(); v != nil {
			n := v.(*Node)
			if n.cfg.Spec == cfg.Spec && n.cfg.HSA == cfg.HSA && n.cfg.Power == cfg.Power && n.cfg.GPUs == cfg.GPUs {
				n.reset(cfg)
				return n
			}
			// Shape mismatch: drop the stale node and build fresh.
		}
	}
	return newNode(cfg)
}

// releaseNode returns a node to the pool. Only called on the normal exit
// path — a panicked run never re-pools its half-mutated node.
func releaseNode(n *Node) {
	if n.cfg.Telemetry == nil {
		nodePool.Put(n)
	}
}
