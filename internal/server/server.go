// Package server models the paper's custom GPU inference server (§VI-A):
// a frontend feeding per-worker request queues, and independent workers
// that each own one GPU stream (HSA queue) and process batches back to
// back — pre-processing, an inference pass of hundreds of kernel calls,
// then post-processing. Each worker is a Replica on a Node, the same
// serving stack the fleet (internal/cluster) steps externally.
//
// Matching the paper's methodology, the load generator is closed-loop and
// drives the server at maximum load: every worker always has a batch ready.
// Measurements are windowed: a warmup phase reaches steady state, then
// throughput, tail latency, and energy are collected over a measurement
// window of virtual time.
package server

import (
	"context"
	"fmt"
	"math"

	"krisp/internal/core"
	"krisp/internal/energy"
	"krisp/internal/faults"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/metrics"
	"krisp/internal/models"
	"krisp/internal/policies"
	"krisp/internal/profile"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
	"krisp/internal/trace"
)

// WorkerSpec describes one model worker.
type WorkerSpec struct {
	Model models.Model
	Batch int
}

// Config describes one serving experiment.
type Config struct {
	// Spec is the simulated device; zero value means MI50.
	Spec gpu.DeviceSpec
	// HSA configures the runtime/command-processor cost model; zero value
	// means hsa.DefaultConfig.
	HSA hsa.Config
	// Policy is the spatial partitioning policy under test.
	Policy policies.Kind
	// GPUs is the number of identical devices; workers spread over them
	// round-robin and partitioning applies per device (a ScaleServe-style
	// multi-GPU deployment). Zero means 1.
	GPUs int
	// Workers lists the co-located model workers (all drive max load).
	Workers []WorkerSpec
	// DB is the profiled performance database; built on the fly if nil.
	DB *profile.DB
	// RightSizes, when non-nil, supplies precomputed ModelRightSize results
	// keyed "model/batch" (the key format of fmt.Sprintf("%s/%d", model,
	// batch)); workers missing from the map are profiled on the fly. Grid
	// harnesses share one profiling pass across cells this way.
	RightSizes map[string]int
	// Power is the energy model; zero value means energy.MI50Power.
	Power energy.Model
	// Seed drives the per-worker latency jitter.
	Seed int64
	// Warmup and Measure bound the experiment in virtual time; zero means
	// auto-size from the slowest worker's isolated latency.
	Warmup, Measure sim.Duration
	// MeasureScale scales the auto-sized measurement window (default 1.0;
	// smoke runs use a fraction). Ignored when Measure is set explicitly.
	MeasureScale float64
	// PreprocessUs/PostprocessUs are the CPU-side batch costs.
	// Zero means the defaults (150us / 80us).
	PreprocessUs, PostprocessUs sim.Duration
	// Jitter is the relative amplitude of per-kernel duration noise
	// (default 0.04). Set negative to disable.
	Jitter float64
	// ForceEmulation runs KRISP policies through the emulated
	// stream-masking path (Fig. 11) instead of native hardware support —
	// used to reproduce the paper's §V-B overhead accounting.
	ForceEmulation bool
	// OverlapLimit overrides the KRISP policies' per-kernel overlap limit
	// (the Fig. 16 sensitivity knob); nil keeps the policy default.
	OverlapLimit *int
	// Trace, if non-nil, records worker 0's kernel launches.
	Trace *trace.Trace
	// Telemetry, when non-nil, instruments the whole stack — devices,
	// command processors, runtimes, fault injector, workers — against the
	// hub's registry (and tracer, when present). Nil disables telemetry
	// entirely; results are byte-identical either way, because telemetry
	// only observes and never schedules events or draws randomness.
	Telemetry *telemetry.Hub
	// Faults, when non-nil and non-empty, arms the chaos substrate: the
	// plan's fault timeline is injected on the simulation clock and the
	// hardened serving path (watchdog, bounded retry, degradation ladder,
	// SLO guard) is enabled. A nil or empty plan leaves serving results
	// bit-identical to a build without fault injection.
	Faults *faults.Plan
	// Ctx, when non-nil, lets an external caller (an HTTP request, a
	// deadline) abandon the simulation early; the engine polls it between
	// events and Result.Interrupted reports the abort.
	Ctx context.Context

	// openLoop, when set by RunOpenLoop, replaces the closed-loop client
	// with Poisson arrivals and dynamic batching.
	openLoop *openLoop
}

// WorkerStats reports one worker's measurement-window results.
type WorkerStats struct {
	Model string
	Batch int
	// Batches and Requests completed inside the measurement window.
	Batches, Requests int
	// BatchLatency samples the end-to-end batch latencies (microseconds)
	// of batches completing inside the window.
	BatchLatency metrics.Sample
}

// P95 returns the worker's 95th-percentile batch latency in microseconds.
func (w *WorkerStats) P95() float64 { return w.BatchLatency.P95() }

// Result is the outcome of one serving experiment.
type Result struct {
	Policy  policies.Kind
	Workers []WorkerStats
	// WindowUs is the measurement window length.
	WindowUs sim.Duration
	// RPS is aggregate requests per second over the window.
	RPS float64
	// EnergyJ is the energy consumed during the window.
	EnergyJ float64
	// EnergyPerInference is joules per completed request.
	EnergyPerInference float64
	// AvgBusyCUs is the time-weighted mean number of busy CUs.
	AvgBusyCUs float64
	// Oversubscribed marks model-wise configurations whose partitions
	// overlap (the paper's open-circle cases).
	Oversubscribed bool
	// Faults carries fault-injection and hardened-path counters; nil
	// unless Config.Faults held a non-empty plan.
	Faults *faults.Stats
	// Interrupted marks a run abandoned early through Config.Ctx; the
	// windowed metrics then cover only the portion actually simulated.
	Interrupted bool
}

// TotalRequests sums completed requests across workers.
func (r *Result) TotalRequests() int {
	n := 0
	for i := range r.Workers {
		n += r.Workers[i].Requests
	}
	return n
}

// MaxP95 returns the worst per-worker p95 batch latency (us). A
// degenerate run in which no worker completed a single batch inside the
// measurement window (an interrupted or pathologically short experiment)
// returns NaN rather than a misleading 0 — "no data" must not read as
// "infinitely fast". Workers without samples are skipped as long as at
// least one worker measured something.
func (r *Result) MaxP95() float64 {
	worst := math.NaN()
	for i := range r.Workers {
		if r.Workers[i].BatchLatency.Len() == 0 {
			continue
		}
		if p := r.Workers[i].P95(); math.IsNaN(worst) || p > worst {
			worst = p
		}
	}
	return worst
}

// BuildDB profiles every kernel of every worker's model at its batch size —
// the install-time profiling step — and returns the performance database.
func BuildDB(spec gpu.DeviceSpec, workers []WorkerSpec) *profile.DB {
	p := profile.New(profile.Config{Spec: spec, Tolerance: 0.05, LaunchOverhead: 6})
	db := profile.NewDB()
	for _, w := range workers {
		db.Profile(p, w.Model.Kernels(w.Batch))
	}
	return db
}

// Run executes one serving experiment and returns windowed measurements.
// The workers are replicas on one Node: worker i is the i-th replica,
// placed on GPU i mod GPUs, and its policy assignment sets the replica's
// runtime mode, stream mask and right-sizer.
func Run(cfg Config) Result {
	if len(cfg.Workers) == 0 {
		panic("server: no workers")
	}
	nc := NodeConfig{
		Spec: cfg.Spec, HSA: cfg.HSA, GPUs: cfg.GPUs, Power: cfg.Power, Seed: cfg.Seed,
		PreprocessUs: cfg.PreprocessUs, PostprocessUs: cfg.PostprocessUs, Jitter: cfg.Jitter,
		Telemetry: cfg.Telemetry, Faults: cfg.Faults,
	}.withDefaults()
	nc.HSA.KernelScoped = cfg.Policy.KernelScoped() && !cfg.ForceEmulation
	topo := nc.Spec.Topo
	chaosArmed := !cfg.Faults.Empty()

	// The profiler backs window auto-sizing and on-the-fly right-sizing;
	// a fully specified run (explicit windows, precomputed right-sizes,
	// prebuilt DB) never touches it, so it is built lazily — profiler
	// construction is a measurable slice of a pooled run's setup cost.
	var prof *profile.Profiler
	getProf := func() *profile.Profiler {
		if prof == nil {
			prof = profile.New(profile.Config{Spec: nc.Spec, Tolerance: 0.05, LaunchOverhead: nc.HSA.PacketProcessTime})
		}
		return prof
	}

	// The slowest worker's isolated latency sizes the windows and, when
	// chaos is armed, the watchdog and SLO-guard defaults.
	var slowest sim.Duration
	if cfg.Warmup == 0 || cfg.Measure == 0 || chaosArmed {
		for _, w := range cfg.Workers {
			if l := getProf().ModelLatency(w.Model.Kernels(w.Batch), topo.TotalCUs()); l > slowest {
				slowest = l
			}
		}
		slowest += nc.PreprocessUs + nc.PostprocessUs
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 5 * slowest
	}
	if cfg.Measure == 0 {
		// Enough for ~60 samples per worker at ~3x contention slowdown.
		scale := cfg.MeasureScale
		if scale <= 0 {
			scale = 1
		}
		cfg.Measure = 180 * slowest * scale
	}

	// The run's state lives on its node, so a pooled node's rerun reuses
	// the setup buffers and worker slots.
	n := acquireNode(nc)
	eng := n.eng
	h := &n.run
	*h = harness{
		eng:          eng,
		measureStart: cfg.Warmup,
		measureEnd:   cfg.Warmup + cfg.Measure,
		ol:           cfg.openLoop,
		now:          h.now,
		rightSizes:   resized(h.rightSizes, len(cfg.Workers)),
		assignments:  resized(h.assignments, len(cfg.Workers)),
		slots:        resized(h.slots, len(cfg.Workers)),
	}
	rightSizes, assignments, slots := h.rightSizes, h.assignments, h.slots

	// Per-worker model right-sizes feed the model-granular policies.
	modelGranular := cfg.Policy == policies.ModelRightSize || cfg.Policy == policies.MRSRequest
	if modelGranular {
		cache := map[string]int{}
		for i, w := range cfg.Workers {
			key := fmt.Sprintf("%s/%d", w.Model.Name, w.Batch)
			rs, ok := cfg.RightSizes[key]
			if !ok {
				rs, ok = cache[key]
				if !ok {
					rs = getProf().ModelRightSize(w.Model.Kernels(w.Batch))
					cache[key] = rs
				}
			}
			rightSizes[i] = rs
		}
	}

	db := cfg.DB
	if db == nil && cfg.Policy.KernelScoped() {
		db = BuildDB(nc.Spec, cfg.Workers)
	}

	// Workers spread over devices round-robin; partitioning policies are
	// applied independently per device (a spatial partition never spans
	// GPUs).
	anyOversub := false
	for g := 0; g < nc.GPUs && g < len(cfg.Workers); g++ {
		var rs []int
		for i := g; i < len(cfg.Workers); i += nc.GPUs {
			rs = append(rs, rightSizes[i])
		}
		as := policies.Assign(cfg.Policy, topo, rs)
		for j := range as {
			assignments[g+j*nc.GPUs] = as[j]
		}
		if policies.Oversubscribed(topo, as) {
			anyOversub = true
		}
	}

	if cfg.Ctx != nil {
		ctx := cfg.Ctx
		eng.SetInterrupt(func() bool { return ctx.Err() != nil })
	}
	var hardening *core.Hardening
	if n.inj != nil {
		hardening = &core.Hardening{
			MaxRetries:         n.inj.MaxRetries(),
			RetryBackoff:       n.inj.RetryBackoff(),
			IOCTLFailureStreak: n.inj.IOCTLFailureStreak(),
			Stats:              &n.inj.Stats,
		}
	}
	var coreTels []*core.Telemetry
	if cfg.Telemetry != nil {
		coreTels = make([]*core.Telemetry, nc.GPUs)
		for g := range coreTels {
			coreTels[g] = core.NewTelemetry(cfg.Telemetry, g)
		}
	}
	rs := core.NewRightSizer(db, topo.TotalCUs())

	for i, w := range cfg.Workers {
		a := assignments[i]
		if cfg.OverlapLimit != nil && a.Mode == core.ModeNative {
			a.OverlapLimit = *cfg.OverlapLimit
		}
		g := i % nc.GPUs
		s := &slots[i]
		s.runtime = core.Config{Mode: a.Mode, OverlapLimit: a.OverlapLimit, Device: g, Hardening: hardening}
		if cfg.ForceEmulation && a.Mode == core.ModeNative {
			s.runtime.Mode = core.ModeEmulated
		}
		if coreTels != nil {
			s.runtime.Telemetry = coreTels[g]
		}
		if i == 0 {
			s.runtime.Trace = cfg.Trace
		}
		spec := ReplicaSpec{Model: w.Model, Batch: w.Batch, GPU: g, runtime: &s.runtime, queueMask: a.QueueMask}
		if a.FixedPartition > 0 {
			spec.CUs = a.FixedPartition
		} else {
			spec.sizer = rs
		}
		if h.ol != nil {
			spec.Batch = h.ol.arrival.MaxBatch
		}
		r := n.AddReplica(spec)
		s.r = r
		s.h = h
		// Fresh stats every run: the latency Sample escapes into Result,
		// so its backing store must never be recycled.
		s.stats = WorkerStats{Model: w.Model.Name, Batch: w.Batch}
		s.tel = newWorkerTelemetry(cfg.Telemetry, w.Model.Name, g, r.rt.Queue().ID)
		r.slot = s
	}

	// Arm the chaos substrate now that every queue exists: inject the fault
	// timeline and start the SLO guard; each batch then gets a watchdog.
	if n.inj != nil {
		n.armFaults()
		plan := n.inj.Plan()
		ch := &chaosHarness{
			eng:          eng,
			stats:        &n.inj.Stats,
			batchTimeout: plan.WatchdogTimeout,
			window:       plan.SLOWindow,
			p99Threshold: float64(plan.SLOP99),
			cooldown:     plan.SLOCooldown,
			stopAt:       h.measureEnd,
		}
		if reg := cfg.Telemetry.Registry(); reg != nil {
			ch.sloViolations = reg.Counter("krisp_server_slo_violations_total",
				"SLO-guard windows whose p99 exceeded the threshold")
		}
		for i := range slots {
			ch.runtimes = append(ch.runtimes, slots[i].r.rt)
		}
		// Auto-size the hardening deadlines from the slowest worker's
		// isolated latency: generous enough that contention alone never
		// trips them, tight enough that a wedged queue is caught within a
		// handful of batch times.
		if ch.batchTimeout <= 0 {
			ch.batchTimeout = 10 * slowest
		}
		if ch.p99Threshold <= 0 {
			ch.p99Threshold = float64(6 * slowest)
		}
		if ch.window <= 0 {
			ch.window = 10 * slowest
		}
		if ch.cooldown <= 0 {
			ch.cooldown = 2 * ch.window
		}
		ch.startGuard()
		h.chaos = ch
	}

	if ol := h.ol; ol != nil {
		ol.measureStart = h.measureStart
		ol.measureEnd = h.measureEnd
		ol.start(eng, cfg.Seed)
		for i := range slots {
			ol.park(slots[i].r)
		}
	} else {
		for i := range slots {
			h.closedLoopNext(slots[i].r)
		}
	}

	// Warm up, then open the measurement window.
	eng.RunUntil(h.measureStart)
	for _, g := range n.gpus {
		g.meter.Reset(eng.Now())
		g.dev.ResetUtilization()
	}
	eng.RunUntil(h.measureEnd)

	var energyJ, busySum float64
	for _, g := range n.gpus {
		energyJ += g.meter.EnergyJ(h.measureEnd)
		busySum += g.dev.AvgBusyCUs()
	}
	result := Result{
		Policy:         cfg.Policy,
		WindowUs:       cfg.Measure,
		EnergyJ:        energyJ,
		AvgBusyCUs:     busySum / float64(nc.GPUs),
		Oversubscribed: modelGranular && anyOversub,
		Interrupted:    eng.Interrupted(),
	}
	if n.inj != nil {
		for i := range slots {
			slots[i].r.rt.FlushDegradedTime()
		}
		stats := n.inj.Stats
		result.Faults = &stats
	}
	result.Workers = make([]WorkerStats, len(slots))
	for i := range slots {
		result.Workers[i] = slots[i].stats
	}
	result.RPS = metrics.Throughput(result.TotalRequests(), float64(cfg.Measure))
	result.EnergyPerInference = energy.PerInference(result.EnergyJ, result.TotalRequests())
	releaseNode(n)
	return result
}

// harness is one Run's serving state, shared by the batch hooks of its
// workers' replicas. It lives on the run's node (Node.run).
type harness struct {
	eng                      *sim.Engine
	measureStart, measureEnd sim.Time
	chaos                    *chaosHarness
	ol                       *openLoop
	// now is the closed loop's arrival-stamp buffer: every request of a
	// resubmitted batch arrives at the same instant.
	now []sim.Time

	// Per-worker setup state and slots, indexed like Config.Workers.
	rightSizes  []int
	assignments []policies.Assignment
	slots       []workerSlot
}

// resized returns buf with length n and every element zeroed, reusing its
// backing array when it is large enough.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// workerSlot is one worker's harness state, hung on its replica.
type workerSlot struct {
	h     *harness
	r     *Replica
	wd    *watchdog
	tel   *workerTelemetry
	stats WorkerStats
	// runtime is the replica's runtime configuration (ReplicaSpec.runtime
	// points here).
	runtime core.Config
}

// submit hands a replica its next batch. The watchdog is armed first, so
// its event precedes the batch's pre-processing event.
func (h *harness) submit(r *Replica, arrivals []sim.Time) {
	if h.chaos != nil {
		r.slot.wd = h.chaos.armWatchdog(r.rt)
	}
	r.submitBatch(arrivals)
}

// closedLoopNext gives a closed-loop worker a full batch arriving now.
func (h *harness) closedLoopNext(r *Replica) {
	n := r.spec.Batch
	if len(h.now) < n {
		h.now = make([]sim.Time, n)
	}
	now := h.now[:n]
	for i := range now {
		now[i] = h.eng.Now()
	}
	h.submit(r, now)
}

// batchDone closes out a finished batch: stop its watchdog, feed the SLO
// guard and telemetry, count it if it ended inside the measurement window,
// then hand the worker its next batch (closed loop) or park it until
// requests arrive (open loop).
func (s *workerSlot) batchDone(r *Replica) {
	if s.wd != nil {
		s.wd.stop()
		s.wd = nil
	}
	h := s.h
	end := h.eng.Now()
	if h.chaos != nil {
		h.chaos.observeBatch(end - r.curStart)
	}
	s.tel.observeBatch(r.curBatch, r.curStart, end)
	if end > h.measureStart && end <= h.measureEnd {
		s.stats.Batches++
		s.stats.Requests += r.curBatch
		s.stats.BatchLatency.Add(end - r.inflight[0].arrival)
	}
	if ol := h.ol; ol != nil {
		ol.complete(r.inflight)
		ol.park(r)
		return
	}
	h.closedLoopNext(r)
}
