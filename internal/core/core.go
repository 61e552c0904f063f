// Package core is KRISP itself: programmer-transparent kernel-wise
// right-sizing layered into the GPU runtime (paper §IV, Fig. 5).
//
// A Runtime wraps one HSA queue (one inference stream). Every kernel call
// from the ML framework is intercepted, its minimum required CUs looked up
// in the profiled performance database, and the partition enforced through
// one of three paths:
//
//   - ModeNative — the proposed hardware: the partition size rides in the
//     extended AQL packet and the packet processor generates the kernel
//     resource mask (kernel-scoped partition instance, Fig. 10b).
//   - ModeEmulated — the paper's evaluation vehicle on real hardware
//     (Fig. 11): two barrier packets bracket each kernel; the first one's
//     runtime callback right-sizes, allocates, and reconfigures the
//     queue's stream-scoped CU mask via the (serialized) IOCTL; the second
//     waits for the reconfiguration signal so the kernel cannot race the
//     mask change.
//   - ModePassthrough — the unmodified baseline: kernels inherit the
//     queue's CU mask (whatever MPS-default/static policy set it to).
//
// EstimateOverhead reproduces §V-B's accounting: the per-model emulation
// overhead L_over = L_emu_base - L_real_base that must be subtracted from
// emulated-KRISP latencies to estimate native KRISP performance (Fig. 12).
package core

import (
	"krisp/internal/alloc"
	"krisp/internal/faults"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/kernels"
	"krisp/internal/profile"
	"krisp/internal/sim"
	"krisp/internal/trace"
)

// Mode selects how spatial partitions are enforced.
type Mode int

const (
	// ModePassthrough launches kernels with the queue's stream mask.
	ModePassthrough Mode = iota
	// ModeNative uses kernel-scoped partition instances in hardware.
	ModeNative
	// ModeEmulated emulates kernel scoping with barrier packets and the
	// stream-scoped CU Masking IOCTL.
	ModeEmulated
)

func (m Mode) String() string {
	switch m {
	case ModePassthrough:
		return "passthrough"
	case ModeNative:
		return "native"
	case ModeEmulated:
		return "emulated"
	default:
		return "unknown"
	}
}

// RightSizer answers "how many CUs does this kernel need?" from the
// profiled performance database — the Required CUs table of §IV-B.
type RightSizer struct {
	db       *profile.DB
	totalCUs int
	fixed    int
	// phase holds per-phase fixed sizes for autoregressive serving:
	// phase[kernels.PhasePrefill] and phase[kernels.PhaseDecode]. A zero
	// entry falls through to the regular fixed/db/full-device path, so a
	// sizer without phase entries behaves exactly as before.
	phase [3]int
}

// NewRightSizer wraps a performance database for a device with totalCUs
// compute units. A nil db right-sizes every kernel to the full device.
func NewRightSizer(db *profile.DB, totalCUs int) *RightSizer {
	return &RightSizer{db: db, totalCUs: totalCUs}
}

// NewFixedRightSizer returns a sizer granting a constant partition to
// every kernel — model-wise right-sizing carried through kernel-scoped
// partition instances (the paper's suggested enhancement to prior works).
func NewFixedRightSizer(n, totalCUs int) *RightSizer {
	if n < 1 {
		n = 1
	}
	if n > totalCUs {
		n = totalCUs
	}
	return &RightSizer{totalCUs: totalCUs, fixed: n}
}

// NewPhaseRightSizer returns a sizer granting separate fixed partitions
// to prefill- and decode-tagged kernels — per-phase kernel-wise
// right-sizing for autoregressive models, where the two phases sit at
// opposite ends of the minCU spectrum. Untagged kernels fall back to the
// larger of the two sizes (the safe side for anything unphased that
// sneaks into an LLM sequence).
func NewPhaseRightSizer(prefillCUs, decodeCUs, totalCUs int) *RightSizer {
	clamp := func(n int) int {
		if n < 1 {
			n = 1
		}
		if n > totalCUs {
			n = totalCUs
		}
		return n
	}
	prefillCUs, decodeCUs = clamp(prefillCUs), clamp(decodeCUs)
	fallback := prefillCUs
	if decodeCUs > fallback {
		fallback = decodeCUs
	}
	r := &RightSizer{totalCUs: totalCUs, fixed: fallback}
	r.phase[kernels.PhasePrefill] = prefillCUs
	r.phase[kernels.PhaseDecode] = decodeCUs
	return r
}

// Size returns the partition size for a kernel: the phase-specific size
// for tagged kernels when configured, else the fixed size if set, else
// its profiled minCU, else the full device for unprofiled kernels.
func (r *RightSizer) Size(d *kernels.Desc) int {
	if d.Phase != kernels.PhaseNone {
		if s := r.phase[d.Phase]; s > 0 {
			return s
		}
	}
	if r.fixed > 0 {
		return r.fixed
	}
	if r.db == nil {
		return r.totalCUs
	}
	return r.db.MinCU(*d, r.totalCUs)
}

// Ladder levels of the graceful-degradation ladder. A hardened runtime
// normally runs kernel-scoped (level 0); when kernel-scoped mask sets keep
// failing or the SLO guard sees the tail blow out, it steps down to the
// stream-scoped mask (level 1) and finally to the full healthy GPU
// (level 2), then re-tightens one rung at a time after a cool-down.
const (
	LadderKernelScoped = iota
	LadderStreamScoped
	LadderFullGPU
)

// Hardening parameterizes the fault-tolerant serving path of a Runtime:
// bounded retry of transiently-failed kernels and the graceful-degradation
// ladder. A nil Hardening on Config disables all of it at zero cost.
type Hardening struct {
	// MaxRetries bounds relaunch attempts for a transiently-failed kernel;
	// past it the kernel is abandoned and the sequence continues.
	MaxRetries int
	// RetryBackoff is the first retry delay; it doubles per attempt.
	RetryBackoff sim.Duration
	// IOCTLFailureStreak is the consecutive SetCUMask failure count that
	// drops an emulated runtime from kernel-scoped to stream-scoped.
	IOCTLFailureStreak int
	// Stats receives fault-reaction counters; shared across runtimes.
	Stats *faults.Stats
}

// Config parameterizes a Runtime.
type Config struct {
	Mode Mode
	// OverlapLimit bounds allocated-but-busy CUs per kernel: 0 for
	// KRISP-I, alloc.NoOverlapLimit for KRISP-O.
	OverlapLimit int
	// Policy is the CU distribution policy (Conserved for KRISP).
	Policy alloc.Policy
	// Trace, when non-nil, records every kernel launch.
	Trace *trace.Trace
	// Device is the GPU index this runtime dispatches to, stamped into
	// trace records and telemetry so multi-GPU runs stay attributable.
	Device int
	// Telemetry, when non-nil, receives right-sizing and ladder metrics.
	Telemetry *Telemetry
	// Hardening, when non-nil, enables the robust serving path (retry +
	// degradation ladder) for chaos runs.
	Hardening *Hardening
}

// Runtime intercepts kernel calls for one inference stream and applies
// kernel-wise right-sizing. It is the programmer-transparent layer: the
// caller (the "ML framework") only ever calls LaunchKernel.
type Runtime struct {
	cfg   Config
	queue *hsa.Queue
	rs    *RightSizer
	eng   *sim.Engine
	cp    *hsa.CommandProcessor
	dev   *gpu.Device
	seq   int

	// Degradation-ladder state (only mutated when cfg.Hardening != nil).
	level           int
	ioctlFailStreak int
	degradedSince   sim.Time
}

// NewRuntime builds the right-sizing runtime over an HSA queue. rs may be
// nil in passthrough mode.
func NewRuntime(eng *sim.Engine, cp *hsa.CommandProcessor, queue *hsa.Queue, rs *RightSizer, cfg Config) *Runtime {
	if cfg.Mode != ModePassthrough && rs == nil {
		panic("core: right-sizing modes require a RightSizer")
	}
	return &Runtime{
		cfg:   cfg,
		queue: queue,
		rs:    rs,
		eng:   eng,
		cp:    cp,
		dev:   cp.Device(),
	}
}

// Reconfigure rebinds a pooled runtime for a fresh run: new queue, sizer
// and config on the same engine/processor/device, with the degradation
// ladder and sequence counter returned to their initial state. It is the
// reuse twin of NewRuntime and panics under the same invariant.
func (rt *Runtime) Reconfigure(queue *hsa.Queue, rs *RightSizer, cfg Config) {
	if cfg.Mode != ModePassthrough && rs == nil {
		panic("core: right-sizing modes require a RightSizer")
	}
	rt.cfg = cfg
	rt.queue = queue
	rt.rs = rs
	rt.seq = 0
	rt.level = 0
	rt.ioctlFailStreak = 0
	rt.degradedSince = 0
}

// Queue returns the underlying HSA queue.
func (rt *Runtime) Queue() *hsa.Queue { return rt.queue }

// Mode returns the enforcement mode.
func (rt *Runtime) Mode() Mode { return rt.cfg.Mode }

// Level returns the runtime's current degradation-ladder level.
func (rt *Runtime) Level() int { return rt.level }

// Widen steps the degradation ladder one rung down (wider masks): kernel-
// scoped → stream-scoped → full healthy GPU. Entering the full-GPU rung
// re-masks the stream to every healthy CU. Passthrough runtimes have no
// kernel-scoped masking to give up, so Widen is a no-op for them. It
// reports whether the level changed.
func (rt *Runtime) Widen() bool {
	h := rt.cfg.Hardening
	if h == nil || rt.cfg.Mode == ModePassthrough || rt.level >= LadderFullGPU {
		return false
	}
	if rt.level == LadderKernelScoped {
		rt.degradedSince = rt.eng.Now()
	}
	rt.level++
	rt.cfg.Telemetry.noteLadder(rt.queue.ID, rt.level, true, rt.eng.Now())
	switch rt.level {
	case LadderStreamScoped:
		h.Stats.StreamFallbacks++
	case LadderFullGPU:
		h.Stats.FullGPUFallbacks++
		rt.queue.SetCUMask(rt.dev.HealthMask(), nil)
	}
	return true
}

// Tighten steps the ladder one rung back toward kernel-scoped masking,
// typically after the SLO guard's cool-down. It reports whether the level
// changed.
func (rt *Runtime) Tighten() bool {
	h := rt.cfg.Hardening
	if h == nil || rt.level == LadderKernelScoped {
		return false
	}
	rt.level--
	rt.cfg.Telemetry.noteLadder(rt.queue.ID, rt.level, false, rt.eng.Now())
	h.Stats.LadderTightenings++
	if rt.level == LadderKernelScoped {
		h.Stats.DegradedTime += rt.eng.Now() - rt.degradedSince
	}
	return true
}

// FlushDegradedTime closes the open degraded interval (if any) into the
// stats at the current time — called once when a run's measurement ends.
func (rt *Runtime) FlushDegradedTime() {
	h := rt.cfg.Hardening
	if h == nil || rt.level == LadderKernelScoped {
		return
	}
	h.Stats.DegradedTime += rt.eng.Now() - rt.degradedSince
	rt.degradedSince = rt.eng.Now()
}

// noteIOCTLFailure records one failed kernel-scoped mask set; a streak of
// them drops the runtime to stream-scoped masking.
func (rt *Runtime) noteIOCTLFailure() {
	h := rt.cfg.Hardening
	h.Stats.MaskFallbacks++
	rt.ioctlFailStreak++
	if rt.ioctlFailStreak >= h.IOCTLFailureStreak && rt.level == LadderKernelScoped {
		rt.ioctlFailStreak = 0
		rt.Widen()
	}
}

// LaunchKernel submits one kernel call. onDone fires when the kernel
// completes on the device.
//
// The AQL packet references *d instead of copying it, so the caller keeps
// *d unchanged until the kernel is first dispatched. A serving loop that
// rebuilds its descriptor buffer only after its sequence's last kernel
// completes meets that for free: the queue is FIFO, so every kernel of the
// sequence has been dispatched by then. Retries run from their own copy
// (see onFaultFor).
func (rt *Runtime) LaunchKernel(d *kernels.Desc, onDone func()) {
	seq := rt.seq
	rt.seq++
	switch rt.cfg.Mode {
	case ModePassthrough:
		rt.submit(seq, d, 0, onDone)
	case ModeNative:
		partition := rt.rs.Size(d)
		rt.cfg.Telemetry.noteDecision(rt.queue.ID, partition, rt.eng.Now())
		if rt.level > LadderKernelScoped {
			// Degraded: suspend per-kernel masking; the kernel inherits
			// the stream mask (full GPU at the bottom rung).
			partition = 0
		}
		rt.submit(seq, d, partition, onDone)
	case ModeEmulated:
		if rt.level > LadderKernelScoped {
			rt.submit(seq, d, 0, onDone)
			return
		}
		rt.launchEmulated(seq, d, onDone)
	default:
		panic("core: unknown mode")
	}
}

// traceRec dedupes trace emission across the retry attempts of one seq:
// each attempt registers its own completion hook, and whichever attempt
// finally completes claims the record. Without the guard, fault paths that
// complete an earlier attempt's signal late (watchdog resets, injected
// double completions) could log the same seq twice.
type traceRec struct{ recorded bool }

// submit dispatches a kernel (kernel-scoped iff partition > 0) and wires
// tracing around it.
func (rt *Runtime) submit(seq int, d *kernels.Desc, partition int, onDone func()) {
	var rec *traceRec
	if rt.cfg.Trace != nil {
		rec = &traceRec{}
	}
	rt.submitAttempt(seq, d, partition, 0, rec, onDone)
}

// onFaultFor builds the transient-failure handler for one dispatch
// attempt: bounded retry with exponential backoff, then abandonment (the
// sequence continues without the kernel — bounded degradation beats a
// wedged stream). Returns nil when hardening is disabled, so fault-free
// runs carry no handler and injected failures are swallowed in hsa.
//
// The handler fires when the attempt fails, before the sequence that
// submitted it can complete, so *d still holds the submitted descriptor;
// the retry runs from a private copy because it may be dispatched after
// the caller has reused the buffer d points into.
func (rt *Runtime) onFaultFor(seq int, d *kernels.Desc, partition, attempt int, rec *traceRec, onDone func()) func() {
	h := rt.cfg.Hardening
	if h == nil {
		return nil
	}
	return func() {
		if attempt >= h.MaxRetries {
			h.Stats.KernelsAbandoned++
			if t := rt.cfg.Telemetry; t != nil {
				t.Abandoned.Inc()
			}
			if onDone != nil {
				onDone()
			}
			return
		}
		h.Stats.KernelRetries++
		if t := rt.cfg.Telemetry; t != nil {
			t.Retries.Inc()
		}
		backoff := h.RetryBackoff * sim.Duration(int64(1)<<uint(attempt))
		snap := *d
		rt.eng.After(backoff, func() {
			rt.submitAttempt(seq, &snap, partition, attempt+1, rec, onDone)
		})
	}
}

func (rt *Runtime) submitAttempt(seq int, d *kernels.Desc, partition, attempt int, rec *traceRec, onDone func()) {
	sig := rt.cp.GetSignal(1)
	onFault := rt.onFaultFor(seq, d, partition, attempt, rec, onDone)
	if rt.cfg.Trace != nil {
		var start sim.Time
		var granted gpu.CUMask
		// The queue serializes kernels, so completion order matches launch
		// order and records append in sequence. rec guards the emission:
		// exactly one record per seq, stamped with the attempt that made it.
		sig.OnDone(func() {
			if !rec.recorded {
				rec.recorded = true
				rt.cfg.Trace.Add(trace.Record{
					Seq:          seq,
					Kernel:       d.Name,
					Workgroups:   d.Work.Workgroups,
					MinCU:        partition,
					AllocatedCUs: granted.Count(),
					Attempt:      attempt,
					Queue:        rt.queue.ID,
					Device:       rt.cfg.Device,
					Start:        start,
					End:          rt.eng.Now(),
				})
			}
			if onDone != nil {
				onDone()
			}
		})
		rt.queue.Submit(hsa.Packet{
			Type:         hsa.KernelDispatch,
			Kernel:       d,
			PartitionCUs: partition,
			OverlapLimit: rt.cfg.OverlapLimit,
			Completion:   sig,
			OnFault:      onFault,
			OnDispatch: func(mask gpu.CUMask) {
				start = rt.eng.Now()
				granted = mask
			},
		})
		return
	}
	if onDone != nil {
		sig.OnDone(onDone)
	}
	rt.queue.Submit(hsa.Packet{
		Type:         hsa.KernelDispatch,
		Kernel:       d,
		PartitionCUs: partition,
		OverlapLimit: rt.cfg.OverlapLimit,
		Completion:   sig,
		OnFault:      onFault,
	})
}

// launchEmulated implements Fig. 11b: barrier (callback: right-size +
// allocate + IOCTL) -> barrier (wait for mask applied) -> kernel.
func (rt *Runtime) launchEmulated(seq int, d *kernels.Desc, onDone func()) {
	// maskApplied is observed (Done) by the second barrier after it
	// completes, so it takes the explicitly-recycled pool path: the second
	// barrier's callback returns it once no reference remains.
	maskApplied := rt.cp.GetBarrierSignal(1)
	// First barrier: consumed once prior kernels in this queue are done
	// (queue FIFO order guarantees that); its runtime callback performs
	// kernel-wise right-sizing and queue mask reconfiguration.
	rt.queue.SubmitBarrier(nil, func() {
		size := rt.rs.Size(d)
		rt.cfg.Telemetry.noteDecision(rt.queue.ID, size, rt.eng.Now())
		mask := rt.cp.GenerateKernelMask(alloc.Request{
			NumCUs:       size,
			OverlapLimit: rt.cfg.OverlapLimit,
			Policy:       rt.cfg.Policy,
			MinGrant:     rt.cp.FairShare(),
		})
		if rt.cfg.Hardening == nil {
			rt.queue.SetCUMask(mask, func() { maskApplied.Complete() })
			return
		}
		// Hardened path: a failed kernel-scoped mask set falls back to the
		// stream-scoped mask already installed (the kernel runs wider than
		// asked — correct, just less isolated), and a streak of failures
		// drops the whole runtime one ladder rung.
		rt.queue.SetCUMaskChecked(mask, func(err error) {
			if err != nil {
				rt.noteIOCTLFailure()
			} else {
				rt.ioctlFailStreak = 0
			}
			maskApplied.Complete()
		})
	}, nil)
	// Second barrier: blocks the kernel packet until the IOCTL applied
	// the new mask, avoiding the mask/kernel race. Its callback is the
	// last reader of maskApplied, so it returns the signal to the pool.
	rt.queue.SubmitBarrier([]*hsa.Signal{maskApplied}, func() {
		rt.cp.PutSignal(maskApplied)
	}, nil)
	// The kernel itself inherits the queue mask just installed.
	rt.submit(seq, d, 0, onDone)
}

// RunSequence launches a kernel sequence (one inference pass) and invokes
// onDone when the final kernel completes. The packets point into descs,
// which must stay unchanged until onDone fires (see LaunchKernel).
func (rt *Runtime) RunSequence(descs []kernels.Desc, onDone func()) {
	if len(descs) == 0 {
		if onDone != nil {
			onDone()
		}
		return
	}
	last := len(descs) - 1
	for i := range descs[:last] {
		rt.LaunchKernel(&descs[i], nil)
	}
	rt.LaunchKernel(&descs[last], onDone)
}

// OverheadEstimate is the §V-B accounting for one model.
type OverheadEstimate struct {
	// LRealBase is the inference latency on the unmodified baseline.
	LRealBase sim.Duration
	// LEmuBase is the latency with kernel-scoped emulation enabled but
	// right-sizing pinned to all CUs (mask reconfiguration still happens).
	LEmuBase sim.Duration
	// LOver = LEmuBase - LRealBase: the emulation-only overhead that must
	// be subtracted from emulated-KRISP measurements.
	LOver sim.Duration
}

// Adjust converts an emulated-KRISP latency into the estimated native
// latency: L_real^KRISP = L_emu^KRISP - L_over.
func (o OverheadEstimate) Adjust(emulated sim.Duration) sim.Duration {
	adj := emulated - o.LOver
	if adj < 0 {
		adj = 0
	}
	return adj
}

// EstimateOverhead measures LRealBase and LEmuBase for one inference pass
// by running it twice on a fresh, otherwise-idle stack: once in
// passthrough mode and once in emulated mode with a full-device
// right-sizer (the paper's "resource mask set to all active CUs").
func EstimateOverhead(spec gpu.DeviceSpec, hsaCfg hsa.Config, descs []kernels.Desc) OverheadEstimate {
	run := func(mode Mode) sim.Duration {
		eng := sim.New()
		dev := gpu.NewDevice(eng, spec, nil)
		cfg := hsaCfg
		cfg.KernelScoped = false // emulation path must not use native support
		cp := hsa.NewCommandProcessor(eng, dev, cfg)
		// Full-device right-sizer: every kernel sized to all CUs.
		rs := NewRightSizer(nil, spec.Topo.TotalCUs())
		rt := NewRuntime(eng, cp, cp.NewQueue(), rs, Config{
			Mode:         mode,
			OverlapLimit: alloc.NoOverlapLimit,
		})
		var done sim.Time
		rt.RunSequence(descs, func() { done = eng.Now() })
		eng.Run()
		return done
	}
	real := run(ModePassthrough)
	emu := run(ModeEmulated)
	return OverheadEstimate{LRealBase: real, LEmuBase: emu, LOver: emu - real}
}
