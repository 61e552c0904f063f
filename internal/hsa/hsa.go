// Package hsa models the slice of the ROCm runtime stack that KRISP
// touches (paper §IV-D, Fig. 9/10): software HSA queues holding AQL
// packets, completion signals, barrier-AND packets, a command processor
// whose packet processor consumes packets, per-queue CU masks settable
// through an IOCTL (AMD's stream-scoped CU Masking API), and — when
// kernel-scoped partition instances are enabled — the KRISP extension that
// reads a partition-size field from the kernel packet and generates a
// per-kernel resource mask with Algorithm 1.
//
// Queues process their packets in order and serialize kernel execution the
// way dependent ML inference streams do: packet n+1 is consumed only after
// packet n's kernel has completed.
//
// The packet processor is the simulator's hottest path — it runs for every
// kernel of every inference pass — so its steady state allocates nothing:
// queues store packets in a head-indexed ring, the dispatch and completion
// hooks are pre-bound method values created once per queue, completion
// signals recycle through a per-processor free list, and kernel-scoped
// mask generation goes through an alloc.MaskCache over the device's live
// Resource Monitor counters.
package hsa

import (
	"errors"

	"krisp/internal/alloc"
	"krisp/internal/gpu"
	"krisp/internal/kernels"
	"krisp/internal/sim"
)

// ErrIOCTLFault is reported to SetCUMaskChecked callers when fault
// injection fails the CU-mask IOCTL: the syscall consumed its latency but
// the queue mask was left unchanged.
var ErrIOCTLFault = errors.New("hsa: CU-mask IOCTL failed")

// Signal is an HSA completion signal: a counter that barrier packets and
// host code can wait on. It is decremented by Complete; observers fire
// when it reaches zero.
type Signal struct {
	value   int
	waiters []func()
	// fired latches once waiters have been notified, and overruns counts
	// Complete calls past zero. Together they make the signal defensive
	// against double completion: injected faults (a retry path completing a
	// packet a second time, a watchdog racing a late completion) can
	// over-complete a signal, and without the guard that would silently
	// corrupt the dependency counts of barrier packets waiting on it.
	fired    bool
	overruns int
	// pool, when non-nil, is the command processor whose free list this
	// signal recycles through; auto makes the recycle happen right after
	// the completion waiters fire (safe only when nothing observes the
	// signal past completion — see CommandProcessor.GetSignal).
	pool *CommandProcessor
	auto bool
}

// NewSignal creates a signal with the given initial value. A value of 0 is
// already complete.
func NewSignal(initial int) *Signal { return &Signal{value: initial} }

// Done reports whether the signal has reached zero.
func (s *Signal) Done() bool { return s.value <= 0 }

// Value returns the remaining completion count (never below zero).
func (s *Signal) Value() int {
	if s.value < 0 {
		return 0
	}
	return s.value
}

// Overruns returns how many Complete calls arrived after the signal had
// already reached zero — always zero in a fault-free run.
func (s *Signal) Overruns() int { return s.overruns }

// Complete decrements the signal; at zero all waiters fire (once).
// Completing an already-done signal is counted as an overrun and otherwise
// ignored, so waiters can never fire twice and barrier dependency counts
// cannot go negative.
func (s *Signal) Complete() {
	if s.value <= 0 {
		s.overruns++
		return
	}
	s.value--
	if s.value != 0 || s.fired {
		return
	}
	s.fired = true
	ws := s.waiters
	if s.pool == nil {
		// Unpooled signals shed their waiters permanently; pooled ones
		// keep the backing array for the next lease.
		s.waiters = nil
	}
	for i := range ws {
		ws[i]()
	}
	if s.pool != nil && s.auto {
		s.pool.putSignal(s)
	}
}

// OnDone registers fn to run when the signal completes; if it already has,
// fn runs immediately.
func (s *Signal) OnDone(fn func()) {
	if s.Done() {
		fn()
		return
	}
	s.waiters = append(s.waiters, fn)
}

// PacketType discriminates AQL packets.
type PacketType int

const (
	// KernelDispatch launches a kernel.
	KernelDispatch PacketType = iota
	// BarrierAND blocks the queue until all dependency signals complete.
	BarrierAND
)

// Packet is an architected queuing language (AQL) packet.
type Packet struct {
	Type PacketType

	// Kernel dispatch fields. Kernel points at the submitter's descriptor
	// (a model's cached sequence or a worker's jittered buffer) instead of
	// carrying an 80-byte copy through every packet move; the submitter
	// keeps it unchanged until the packet is dispatched.
	Kernel *kernels.Desc
	// PartitionCUs is KRISP's extension to the AQL kernel packet: the
	// partition size injected by kernel-wise right-sizing in the runtime.
	// Zero means "no kernel-scoped partition" and the kernel inherits the
	// queue's CU mask (baseline stream-scoped behaviour).
	PartitionCUs int
	// OverlapLimit bounds how many already-busy CUs the generated mask may
	// include (see alloc.Request). Only meaningful with PartitionCUs > 0.
	OverlapLimit int

	// Barrier fields: the packet is consumed once all DepSignals are done.
	DepSignals []*Signal
	// Callback runs in the runtime when the barrier packet is consumed —
	// the hook KRISP's emulation uses to reconfigure the queue mask
	// between kernels (Fig. 11b step 2).
	Callback func()

	// Completion, if non-nil, is completed when the packet finishes
	// (kernel completed, or barrier consumed).
	Completion *Signal

	// OnDispatch, if non-nil, runs when a kernel packet is handed to the
	// device, with the resource mask it was granted. Tracing hook.
	OnDispatch func(mask gpu.CUMask)

	// OnFault, if non-nil, is invoked INSTEAD of Completion when fault
	// injection turns this dispatch into a transient failure: the kernel
	// occupied the device for its full duration but its result is lost
	// (the software-visible shape of an ECC/queue-preemption error). A
	// packet without an OnFault handler swallows the failure and completes
	// normally, so untracked callers can never deadlock on a lost signal.
	OnFault func()

	// enqueuedAt is stamped by Submit (doorbell time) so telemetry can
	// report doorbell-to-dispatch latency and queue-wait spans.
	enqueuedAt sim.Time
}

// FaultHook is the injection surface the command processor consults when
// fault injection is armed (see internal/faults). All methods are called
// from the simulation goroutine; a nil hook means a fault-free run and
// costs a single pointer check per consultation site.
type FaultHook interface {
	// IOCTLOutcome is consulted once per CU-mask IOCTL: fail aborts the
	// mask change after the syscall latency elapses, extra adds a latency
	// spike on top of the configured IOCTLLatency.
	IOCTLOutcome() (fail bool, extra sim.Duration)
	// KernelOutcome is consulted once per kernel dispatch: stretch > 1
	// turns the kernel into a straggler (its execution time multiplies),
	// fail turns it into a transient failure routed to Packet.OnFault.
	KernelOutcome() (stretch float64, fail bool)
	// NoteHealthRemask records that a dispatch's resource mask had to be
	// shrunk around dead CUs.
	NoteHealthRemask()
}

// Config parameterizes the command processor.
type Config struct {
	// PacketProcessTime is the fixed cost to consume any AQL packet
	// (runtime launch path + packet processor), per packet.
	PacketProcessTime sim.Duration
	// MaskAllocTime is the added firmware cost of running the resource
	// mask generation algorithm for kernel-scoped partitions. The paper
	// measured a 1us tail for Algorithm 1.
	MaskAllocTime sim.Duration
	// IOCTLLatency is the cost of the CU-mask IOCTL syscall behind the
	// stream-scoped CU Masking API. IOCTLs serialize in the ROCm runtime
	// (paper §V-B), which this model enforces globally.
	IOCTLLatency sim.Duration
	// KernelScoped enables KRISP's hardware support: the packet processor
	// honours PartitionCUs and generates a per-kernel resource mask.
	KernelScoped bool
	// AllocPolicy is the distribution policy used for kernel-scoped masks.
	// The zero value is alloc.Conserved, KRISP's choice.
	AllocPolicy alloc.Policy
	// NoFairShare disables the fair-share progress floor in kernel-scoped
	// allocation (ablation knob): starved kernels then run on whatever
	// scraps the overlap limit leaves them.
	NoFairShare bool
}

// DefaultConfig matches the measurements the paper reports: ~6us launch
// path, 1us for mask generation, 20us per CU-mask IOCTL.
func DefaultConfig() Config {
	return Config{
		PacketProcessTime: 6,
		MaskAllocTime:     1,
		IOCTLLatency:      20,
	}
}

// CommandProcessor consumes AQL packets from queues and dispatches kernels
// to the device.
type CommandProcessor struct {
	cfg Config
	eng *sim.Engine
	dev *gpu.Device

	// masks caches Algorithm 1 output against the device's occupancy
	// generation (the dispatch fast path).
	masks *alloc.MaskCache

	// sigFree recycles completion signals leased through GetSignal /
	// GetBarrierSignal. sigAll tracks every signal this processor ever
	// allocated, so Reset can reclaim leases orphaned by an engine reset
	// (signals of kernels still in flight when a run was cut off).
	sigFree []*Signal
	sigAll  []*Signal

	// ioctlFreeAt implements global IOCTL serialization.
	ioctlFreeAt sim.Time
	nextQueueID int
	queues      []*Queue
	// queueFree recycles released queues (ReleaseQueue / Reset) so replica
	// churn and run reuse stop growing cp.queues without bound. A recycled
	// queue keeps its original ID: cross-queue ordering is driven by event
	// sequence, never by ID, and ActiveStreams only counts busy queues.
	queueFree []*Queue
	faults    FaultHook
	// tel, when non-nil, receives dispatch/IOCTL/queue telemetry. Handles
	// are resolved once (see telemetry.go); a disabled run keeps this nil
	// and pays one pointer check per packet.
	tel *Telemetry

	// DispatchCount counts kernels launched (for tests and stats).
	DispatchCount int
}

// SetFaults installs (or clears, with nil) the fault-injection hook.
func (cp *CommandProcessor) SetFaults(f FaultHook) { cp.faults = f }

// NumQueues returns the number of queues created on this processor.
func (cp *CommandProcessor) NumQueues() int { return len(cp.queues) }

// Queue returns the i-th queue in creation order, or nil when out of range.
func (cp *CommandProcessor) Queue(i int) *Queue {
	if i < 0 || i >= len(cp.queues) {
		return nil
	}
	return cp.queues[i]
}

// ActiveStreams returns the number of queues currently holding or
// processing packets — the concurrency the allocator's fair-share floor is
// computed against.
func (cp *CommandProcessor) ActiveStreams() int {
	n := 0
	for _, q := range cp.queues {
		if q.busy || q.Pending() > 0 {
			n++
		}
	}
	return n
}

// FairShare returns the per-stream fair share of CUs given current queue
// activity: the whole device for a lone stream.
func (cp *CommandProcessor) FairShare() int {
	active := cp.ActiveStreams()
	if active < 1 {
		active = 1
	}
	return cp.dev.Spec.Topo.TotalCUs() / active
}

// NewCommandProcessor creates a command processor bound to a device.
func NewCommandProcessor(eng *sim.Engine, dev *gpu.Device, cfg Config) *CommandProcessor {
	return &CommandProcessor{
		cfg:   cfg,
		eng:   eng,
		dev:   dev,
		masks: alloc.NewMaskCache(dev.Spec.Topo),
	}
}

// Device returns the device this command processor dispatches to.
func (cp *CommandProcessor) Device() *gpu.Device { return cp.dev }

// Config returns the command processor configuration.
func (cp *CommandProcessor) Config() Config { return cp.cfg }

// MaskCache returns the processor's Algorithm 1 cache (for stats/tests).
func (cp *CommandProcessor) MaskCache() *alloc.MaskCache { return cp.masks }

// GenerateKernelMask runs Algorithm 1 for req against the device's live
// Resource Monitor counters through the processor's mask cache — the same
// path the packet processor uses for kernel-scoped dispatches, exposed for
// the runtime's emulated enforcement (Fig. 11b).
func (cp *CommandProcessor) GenerateKernelMask(req alloc.Request) gpu.CUMask {
	return cp.masks.Generate(cp.dev, req)
}

// GetSignal leases a completion signal from the processor's free list
// (allocating one when the list is empty). The signal returns itself to
// the pool as soon as it completes and its waiters have run, so it must
// not be observed (Done/Value/OnDone) after completion — the pattern of a
// kernel completion signal, whose last act is firing its waiters. Signals
// that never complete (a faulted dispatch routed to OnFault) simply fall
// to the garbage collector; the pool is a cache, not an accounting ledger.
func (cp *CommandProcessor) GetSignal(initial int) *Signal {
	s := cp.leaseSignal(initial)
	s.auto = true
	return s
}

// GetBarrierSignal leases a pooled signal that is NOT recycled on
// completion: barrier dependency signals may be inspected (Done) after
// they complete, so the owner returns them with PutSignal at a point where
// no references remain — typically the consuming barrier's callback.
func (cp *CommandProcessor) GetBarrierSignal(initial int) *Signal {
	s := cp.leaseSignal(initial)
	s.auto = false
	return s
}

// PutSignal returns a signal leased with GetBarrierSignal to the free
// list. It must be called at most once per lease, only after the signal
// completed and every reference to it is dead. Signals from other
// processors (or plain NewSignal) are ignored.
func (cp *CommandProcessor) PutSignal(s *Signal) {
	if s == nil || s.pool != cp {
		return
	}
	cp.putSignal(s)
}

func (cp *CommandProcessor) leaseSignal(initial int) *Signal {
	var s *Signal
	if n := len(cp.sigFree); n > 0 {
		s = cp.sigFree[n-1]
		cp.sigFree[n-1] = nil
		cp.sigFree = cp.sigFree[:n-1]
	} else {
		s = &Signal{pool: cp}
		cp.sigAll = append(cp.sigAll, s)
	}
	s.value = initial
	s.fired = false
	s.overruns = 0
	return s
}

func (cp *CommandProcessor) putSignal(s *Signal) {
	s.waiters = s.waiters[:0]
	cp.sigFree = append(cp.sigFree, s)
}

// Queue is a software HSA queue. Packets submitted to it are consumed in
// FIFO order; kernel packets serialize on completion.
type Queue struct {
	ID   int
	cp   *CommandProcessor
	mask gpu.CUMask

	// packets[head:] are the waiting packets; the head index advances on
	// consumption (and both reset once the queue drains) so the steady
	// state re-uses one backing array instead of re-slicing it away.
	packets []Packet
	head    int
	busy    bool // a packet from this queue is being processed or executing

	// cur is the packet currently mid-flight (from consumption until its
	// kernel completes or its barrier fires). The queue serializes
	// packets, so exactly one can be in flight — which lets the pre-bound
	// hooks below read it from the queue instead of a per-packet closure.
	cur             Packet
	curKernelScoped bool
	curFaulted      bool
	barrierWaits    int
	// curConsumedAt/curDispatchedAt mark when the in-flight packet was
	// consumed from the ring and handed to the device — the span
	// boundaries telemetry reports. Maintained only when telemetry is on.
	curConsumedAt   sim.Time
	curDispatchedAt sim.Time

	// Pre-bound method values, created once in NewQueue, so the dispatch
	// path schedules and registers callbacks without allocating closures.
	dispatchFn   func()
	kernelDoneFn func()
	barrierFn    func()
	barrierDepFn func()

	// stalledUntil freezes the packet processor: while now < stalledUntil
	// no new packet is consumed (a packet already mid-flight finishes).
	// resume is the event that restarts the pump when the stall expires.
	stalledUntil sim.Time
	resume       *sim.Event

	// pendingIOCTL counts SetCUMask IOCTLs issued on this queue whose
	// apply events have not fired yet. A queue with one in flight is not
	// quiescent: recycling it would let the stale apply clobber the next
	// tenant's mask.
	pendingIOCTL int
}

// NewQueue allocates a queue whose initial CU mask is the full device,
// recycling a released queue when one is available.
func (cp *CommandProcessor) NewQueue() *Queue {
	var q *Queue
	if n := len(cp.queueFree); n > 0 {
		q = cp.queueFree[n-1]
		cp.queueFree[n-1] = nil
		cp.queueFree = cp.queueFree[:n-1]
	} else {
		cp.nextQueueID++
		q = &Queue{
			ID: cp.nextQueueID,
			cp: cp,
		}
		q.dispatchFn = q.dispatchCur
		q.kernelDoneFn = q.kernelDone
		q.barrierFn = q.barrierReady
		q.barrierDepFn = q.barrierDepDone
	}
	q.mask = gpu.FullMask(cp.dev.Spec.Topo)
	cp.queues = append(cp.queues, q)
	cp.tel.nameQueue(q.ID)
	return q
}

// Quiescent reports whether the queue holds no packet, no in-flight work,
// no pending stall resume and no un-applied CU-mask IOCTL — the condition
// under which recycling it cannot be observed.
func (q *Queue) Quiescent() bool {
	return !q.busy && q.Pending() == 0 && q.resume == nil && q.pendingIOCTL == 0
}

// reset returns a queue to its just-constructed state, keeping its ID and
// pre-bound dispatch hooks.
func (q *Queue) reset() {
	q.mask = gpu.FullMask(q.cp.dev.Spec.Topo)
	q.packets = q.packets[:0]
	q.head = 0
	q.busy = false
	q.cur = Packet{}
	q.curKernelScoped = false
	q.curFaulted = false
	q.barrierWaits = 0
	q.curConsumedAt = 0
	q.curDispatchedAt = 0
	q.stalledUntil = 0
	q.resume = nil
	q.pendingIOCTL = 0
}

// ReleaseQueue retires a quiescent queue to the free list for reuse by a
// later NewQueue, removing it from the processor's live set. Queues that
// are busy, stalled, or have an IOCTL in flight are left alone — their
// pending engine events still reference them, so the caller simply leaks
// them to the garbage collector.
func (cp *CommandProcessor) ReleaseQueue(q *Queue) {
	if q == nil || q.cp != cp || !q.Quiescent() {
		return
	}
	for i, x := range cp.queues {
		if x == q {
			cp.queues = append(cp.queues[:i], cp.queues[i+1:]...)
			q.reset()
			cp.queueFree = append(cp.queueFree, q)
			return
		}
	}
}

// Reset returns the command processor to its just-constructed state for
// reuse against a reset engine and device. Every live queue is force-reset
// (the engine reset already dropped any events referencing it) and parked
// on the free list in creation order, so a rerun's NewQueue calls get the
// same queues back with the same IDs. The mask cache survives: its idle
// side is a pure function of topology, and its busy side is keyed on the
// device occupancy generation, which Device.Reset advances.
func (cp *CommandProcessor) Reset() {
	for i := len(cp.queues) - 1; i >= 0; i-- {
		q := cp.queues[i]
		q.reset()
		cp.queueFree = append(cp.queueFree, q)
		cp.queues[i] = nil
	}
	cp.queues = cp.queues[:0]
	// Every lease is dead once the engine resets: rebuild the free list
	// from the full signal population, reclaiming in-flight orphans.
	cp.sigFree = cp.sigFree[:0]
	for _, s := range cp.sigAll {
		s.waiters = s.waiters[:0]
		cp.sigFree = append(cp.sigFree, s)
	}
	cp.ioctlFreeAt = 0
	cp.DispatchCount = 0
	cp.faults = nil
}

// CUMask returns the queue's current stream-scoped CU mask.
func (q *Queue) CUMask() gpu.CUMask { return q.mask }

// SetCUMask models the CU Masking API: an HSA runtime call backed by an
// IOCTL. The mask takes effect after the (globally serialized) IOCTL
// completes; onApplied, if non-nil, runs at that point. Kernels dispatched
// before the IOCTL completes use the old mask — the race the paper's
// emulation methodology guards against with its second barrier packet.
// Injected IOCTL failures are swallowed (the mask is simply left
// unchanged); callers that must react to them use SetCUMaskChecked.
func (q *Queue) SetCUMask(mask gpu.CUMask, onApplied func()) {
	if onApplied == nil {
		q.SetCUMaskChecked(mask, nil)
		return
	}
	q.SetCUMaskChecked(mask, func(error) { onApplied() })
}

// SetCUMaskChecked is SetCUMask with an outcome: onApplied receives nil
// when the mask took effect, or ErrIOCTLFault when fault injection failed
// the IOCTL (latency paid, mask unchanged). Latency spikes injected on the
// IOCTL path lengthen the global serialization window exactly as a slow
// real syscall would.
func (q *Queue) SetCUMaskChecked(mask gpu.CUMask, onApplied func(err error)) {
	if mask.IsEmpty() {
		panic("hsa: SetCUMask with empty mask")
	}
	cp := q.cp
	var fail bool
	var extra sim.Duration
	if cp.faults != nil {
		fail, extra = cp.faults.IOCTLOutcome()
	}
	now := cp.eng.Now()
	start := now
	if cp.ioctlFreeAt > start {
		start = cp.ioctlFreeAt
	}
	applyAt := start + cp.cfg.IOCTLLatency + extra
	cp.ioctlFreeAt = applyAt
	if t := cp.tel; t != nil {
		t.IOCTLs.Inc()
		t.IOCTLLatency.Observe(applyAt - now)
		t.tracer.Span("hsa", "cu_mask_ioctl", t.pid, q.ID, start, applyAt)
	}
	q.pendingIOCTL++
	cp.eng.At(applyAt, func() {
		q.pendingIOCTL--
		if fail {
			if onApplied != nil {
				onApplied(ErrIOCTLFault)
			}
			return
		}
		q.mask = mask
		if onApplied != nil {
			onApplied(nil)
		}
	})
}

// StallFor freezes this queue's packet processor for d microseconds from
// now: no further packet is consumed until the stall expires (or a
// watchdog calls ResetStall). Overlapping stalls extend to the furthest
// deadline. A packet already mid-flight completes normally.
func (q *Queue) StallFor(d sim.Duration) {
	until := q.cp.eng.Now() + d
	if until <= q.stalledUntil {
		return
	}
	q.stalledUntil = until
	if q.resume != nil {
		q.cp.eng.Cancel(q.resume)
	}
	q.resume = q.cp.eng.At(until, func() {
		q.resume = nil
		q.pump()
	})
}

// Stalled reports whether the packet processor is currently frozen.
func (q *Queue) Stalled() bool { return q.cp.eng.Now() < q.stalledUntil }

// StalledUntil returns the time the current stall expires (zero when the
// queue has never stalled).
func (q *Queue) StalledUntil() sim.Time { return q.stalledUntil }

// ResetStall clears an active stall immediately — the driver-level queue
// reset a watchdog performs on a hung packet processor — and restarts the
// pump. It reports whether a stall was actually cleared.
func (q *Queue) ResetStall() bool {
	if !q.Stalled() {
		return false
	}
	q.stalledUntil = q.cp.eng.Now()
	if q.resume != nil {
		q.cp.eng.Cancel(q.resume)
		q.resume = nil
	}
	q.pump()
	return true
}

// Submit enqueues a packet and rings the doorbell.
func (q *Queue) Submit(p Packet) {
	p.enqueuedAt = q.cp.eng.Now()
	if t := q.cp.tel; t != nil {
		t.QueueDepth.Add(1)
	}
	q.packets = append(q.packets, p)
	q.pump()
}

// SubmitKernel is a convenience wrapper: enqueue a kernel dispatch whose
// completion invokes onDone.
func (q *Queue) SubmitKernel(d *kernels.Desc, onDone func()) {
	q.submitKernel(d, 0, 0, onDone)
}

// SubmitKernelScoped enqueues a kernel dispatch carrying KRISP's partition
// size and overlap limit in the extended AQL fields.
func (q *Queue) SubmitKernelScoped(d *kernels.Desc, partitionCUs, overlapLimit int, onDone func()) {
	q.submitKernel(d, partitionCUs, overlapLimit, onDone)
}

func (q *Queue) submitKernel(d *kernels.Desc, cus, limit int, onDone func()) {
	sig := q.cp.GetSignal(1)
	if onDone != nil {
		sig.OnDone(onDone)
	}
	q.Submit(Packet{
		Type:         KernelDispatch,
		Kernel:       d,
		PartitionCUs: cus,
		OverlapLimit: limit,
		Completion:   sig,
	})
}

// SubmitBarrier enqueues a barrier-AND packet. callback runs when the
// barrier is consumed (after deps complete); completion, if non-nil, is
// completed at the same point.
func (q *Queue) SubmitBarrier(deps []*Signal, callback func(), completion *Signal) {
	q.Submit(Packet{
		Type:       BarrierAND,
		DepSignals: deps,
		Callback:   callback,
		Completion: completion,
	})
}

// Pending returns the number of packets waiting in the queue (not counting
// one currently being processed).
func (q *Queue) Pending() int { return len(q.packets) - q.head }

// pump consumes the next packet if the queue is idle and not stalled.
func (q *Queue) pump() {
	if q.busy || q.head >= len(q.packets) {
		return
	}
	if q.Stalled() {
		return // the stall's resume event re-pumps
	}
	q.busy = true
	q.cur = q.packets[q.head]
	q.packets[q.head] = Packet{} // release the slot's references
	q.head++
	if t := q.cp.tel; t != nil {
		t.QueueDepth.Add(-1)
		q.curConsumedAt = q.cp.eng.Now()
	}
	if q.head == len(q.packets) {
		q.packets = q.packets[:0]
		q.head = 0
	}
	switch q.cur.Type {
	case KernelDispatch:
		q.processKernel()
	case BarrierAND:
		q.processBarrier()
	default:
		panic("hsa: unknown packet type")
	}
}

// processKernel pays the packet-processing cost, then hands q.cur to the
// device via the pre-bound dispatch hook.
func (q *Queue) processKernel() {
	cp := q.cp
	cost := cp.cfg.PacketProcessTime
	q.curKernelScoped = cp.cfg.KernelScoped && q.cur.PartitionCUs > 0
	if q.curKernelScoped {
		cost += cp.cfg.MaskAllocTime
	}
	cp.eng.After(cost, q.dispatchFn)
}

// dispatchCur launches the in-flight kernel packet on the device.
func (q *Queue) dispatchCur() {
	cp := q.cp
	p := &q.cur
	mask := q.mask
	if q.curKernelScoped {
		// KRISP packet processor: generate the kernel resource mask
		// from the live Resource Monitor counters. The fair share of
		// the device is passed as the progress floor.
		minGrant := cp.FairShare()
		if cp.cfg.NoFairShare {
			minGrant = 0
		}
		mask = cp.masks.Generate(cp.dev, alloc.Request{
			NumCUs:       p.PartitionCUs,
			OverlapLimit: p.OverlapLimit,
			Policy:       cp.cfg.AllocPolicy,
			MinGrant:     minGrant,
		})
	}
	if !cp.dev.AllHealthy() {
		// Dead CUs are masked out before dispatch; an all-dead grant
		// falls back to the surviving set so the kernel still runs.
		if m := mask.And(cp.dev.HealthMask()); !m.Equal(mask) {
			if m.IsEmpty() {
				m = cp.dev.HealthMask()
			}
			mask = m
			if cp.faults != nil {
				cp.faults.NoteHealthRemask()
			}
		}
	}
	work := p.Kernel.Work
	q.curFaulted = false
	if cp.faults != nil {
		stretch, fail := cp.faults.KernelOutcome()
		if stretch > 1 {
			work.WGTime *= stretch
			work.Tail *= stretch
		}
		q.curFaulted = fail
	}
	cp.DispatchCount++
	if t := cp.tel; t != nil {
		now := cp.eng.Now()
		t.Dispatches.Inc()
		t.DispatchWait.Observe(now - p.enqueuedAt)
		if tr := t.tracer; tr != nil {
			tr.Span("hsa", "queue_wait", t.pid, q.ID, p.enqueuedAt, q.curConsumedAt)
			tr.SpanArg("hsa", "packet_process", t.pid, q.ID, q.curConsumedAt, now,
				"mask_cus", float64(mask.Count()))
		}
		q.curDispatchedAt = now
	}
	if p.OnDispatch != nil {
		p.OnDispatch(mask)
	}
	cp.dev.Launch(work, mask, q.kernelDoneFn)
}

// kernelDone finishes the in-flight kernel packet: completion (or the
// fault route), then the next packet.
func (q *Queue) kernelDone() {
	if t := q.cp.tel; t != nil {
		if tr := t.tracer; tr != nil {
			tr.Span("kernel", q.cur.Kernel.Name, t.pid, q.ID, q.curDispatchedAt, q.cp.eng.Now())
		}
	}
	onFault := q.cur.OnFault
	completion := q.cur.Completion
	faulted := q.curFaulted
	q.cur = Packet{}
	q.curFaulted = false
	if faulted && onFault != nil {
		onFault()
	} else if completion != nil {
		completion.Complete()
	}
	q.busy = false
	q.pump()
}

// processBarrier pays the packet-processing cost, then evaluates the
// barrier's dependencies.
func (q *Queue) processBarrier() {
	q.cp.eng.After(q.cp.cfg.PacketProcessTime, q.barrierFn)
}

// barrierReady counts the in-flight barrier's outstanding dependencies and
// either fires it or parks the pre-bound dep hook on each pending signal.
func (q *Queue) barrierReady() {
	deps := q.cur.DepSignals
	q.barrierWaits = 0
	for _, s := range deps {
		if !s.Done() {
			q.barrierWaits++
		}
	}
	if q.barrierWaits == 0 {
		q.finishBarrier()
		return
	}
	for _, s := range deps {
		if !s.Done() {
			s.OnDone(q.barrierDepFn)
		}
	}
}

func (q *Queue) barrierDepDone() {
	q.barrierWaits--
	if q.barrierWaits == 0 {
		q.finishBarrier()
	}
}

// finishBarrier consumes the in-flight barrier packet: callback,
// completion, then the next packet.
func (q *Queue) finishBarrier() {
	if t := q.cp.tel; t != nil {
		t.Barriers.Inc()
		if tr := t.tracer; tr != nil {
			tr.Span("hsa", "barrier", t.pid, q.ID, q.curConsumedAt, q.cp.eng.Now())
		}
	}
	callback := q.cur.Callback
	completion := q.cur.Completion
	q.cur = Packet{}
	if callback != nil {
		callback()
	}
	if completion != nil {
		completion.Complete()
	}
	q.busy = false
	q.pump()
}
