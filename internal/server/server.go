// Package server models the paper's custom GPU inference server (§VI-A):
// a frontend feeding per-worker request queues, and independent workers
// that each own one GPU stream (HSA queue) and process batches back to
// back — pre-processing, an inference pass of hundreds of kernel calls,
// then post-processing.
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
	"math/rand"

	"krisp/internal/core"
	"krisp/internal/energy"
	"krisp/internal/faults"
	"krisp/internal/gpu"
	"krisp/internal/hsa"
	"krisp/internal/kernels"
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
func Run(cfg Config) Result {
	if len(cfg.Workers) == 0 {
		panic("server: no workers")
	}
	if cfg.Spec.Topo.TotalCUs() == 0 {
		cfg.Spec = gpu.MI50Spec()
	}
	if cfg.HSA.PacketProcessTime == 0 {
		cfg.HSA = hsa.DefaultConfig()
	}
	if cfg.Power.IdleW == 0 && cfg.Power.PerCUW == 0 {
		cfg.Power = energy.MI50Power()
	}
	if cfg.PreprocessUs == 0 {
		cfg.PreprocessUs = 150
	}
	if cfg.PostprocessUs == 0 {
		cfg.PostprocessUs = 80
	}
	switch {
	case cfg.Jitter == 0:
		cfg.Jitter = 0.04
	case cfg.Jitter < 0:
		cfg.Jitter = 0
	}

	chaosArmed := !cfg.Faults.Empty()

	// The profiler backs window auto-sizing and on-the-fly right-sizing;
	// a fully specified run (explicit windows, precomputed right-sizes,
	// prebuilt DB) never touches it, so it is built lazily — profiler
	// construction is a measurable slice of a pooled run's setup cost.
	var prof *profile.Profiler
	getProf := func() *profile.Profiler {
		if prof == nil {
			prof = profile.New(profile.Config{Spec: cfg.Spec, Tolerance: 0.05, LaunchOverhead: cfg.HSA.PacketProcessTime})
		}
		return prof
	}

	// The slowest worker's isolated latency sizes the windows and, when
	// chaos is armed, the watchdog and SLO-guard defaults.
	var slowest sim.Duration
	if cfg.Warmup == 0 || cfg.Measure == 0 || chaosArmed {
		for _, w := range cfg.Workers {
			if l := getProf().ModelLatency(w.Model.Kernels(w.Batch), cfg.Spec.Topo.TotalCUs()); l > slowest {
				slowest = l
			}
		}
		slowest += cfg.PreprocessUs + cfg.PostprocessUs
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

	numGPUs := cfg.GPUs
	if numGPUs < 1 {
		numGPUs = 1
	}
	hsaCfg := cfg.HSA
	hsaCfg.KernelScoped = cfg.Policy.KernelScoped() && !cfg.ForceEmulation

	// Acquire the run context: engine, per-GPU stacks, worker slots. A
	// pooled context with a matching shape is reset in place; everything
	// below reapplies the per-run configuration on top of it.
	st := acquireRun(runShape{
		spec:    cfg.Spec,
		hsa:     hsaCfg,
		power:   cfg.Power,
		gpus:    numGPUs,
		workers: len(cfg.Workers),
	}, cfg.Telemetry)
	eng := st.eng
	gpus := st.gpus
	if cfg.Ctx != nil {
		ctx := cfg.Ctx
		eng.SetInterrupt(func() bool { return ctx.Err() != nil })
	}

	// Per-worker model right-sizes feed the model-granular policies.
	rightSizes := scratchInts(st.rightSizes, len(cfg.Workers))
	st.rightSizes = rightSizes
	if cfg.Policy == policies.ModelRightSize || cfg.Policy == policies.MRSRequest {
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
		db = BuildDB(cfg.Spec, cfg.Workers)
	}

	// Workers spread over devices round-robin; partitioning policies are
	// applied independently per device (a spatial partition never spans
	// GPUs).
	if cap(st.perGPU) < numGPUs {
		st.perGPU = make([][]int, numGPUs)
	}
	perGPU := st.perGPU[:numGPUs] // worker indices per device
	for g := range perGPU {
		perGPU[g] = perGPU[g][:0]
	}
	for i := range cfg.Workers {
		g := i % numGPUs
		perGPU[g] = append(perGPU[g], i)
	}
	if cap(st.assignments) < len(cfg.Workers) {
		st.assignments = make([]policies.Assignment, len(cfg.Workers))
	}
	assignments := st.assignments[:len(cfg.Workers)]
	anyOversub := false
	for _, idxs := range perGPU {
		if len(idxs) == 0 {
			continue
		}
		rs := make([]int, len(idxs))
		for j, wi := range idxs {
			rs[j] = rightSizes[wi]
		}
		as := policies.Assign(cfg.Policy, cfg.Spec.Topo, rs)
		for j, wi := range idxs {
			assignments[wi] = as[j]
		}
		if policies.Oversubscribed(cfg.Spec.Topo, as) {
			anyOversub = true
		}
	}
	if cfg.OverlapLimit != nil {
		for i := range assignments {
			if assignments[i].Mode == core.ModeNative {
				assignments[i].OverlapLimit = *cfg.OverlapLimit
			}
		}
	}

	var inj *faults.Injector
	if chaosArmed {
		inj = faults.NewInjector(eng, *cfg.Faults)
		for _, g := range gpus {
			g.cp.SetFaults(inj)
		}
		inj.SetTelemetry(faults.NewTelemetry(cfg.Telemetry))
	}
	rs := core.NewRightSizer(db, cfg.Spec.Topo.TotalCUs())

	measureStart := cfg.Warmup
	measureEnd := cfg.Warmup + cfg.Measure

	workers := st.workers
	for i, spec := range cfg.Workers {
		a := assignments[i]
		stack := gpus[i%numGPUs]
		mode := a.Mode
		if cfg.ForceEmulation && mode == core.ModeNative {
			mode = core.ModeEmulated
		}
		q := stack.cp.NewQueue()
		if !a.QueueMask.IsEmpty() && !a.QueueMask.Equal(gpu.FullMask(cfg.Spec.Topo)) {
			q.SetCUMask(a.QueueMask, nil)
		}
		rtCfg := core.Config{
			Mode:         mode,
			OverlapLimit: a.OverlapLimit,
			Device:       i % numGPUs,
			Telemetry:    st.coreTels[i%numGPUs],
		}
		if i == 0 {
			rtCfg.Trace = cfg.Trace
		}
		if inj != nil {
			rtCfg.Hardening = &core.Hardening{
				MaxRetries:         inj.MaxRetries(),
				RetryBackoff:       inj.RetryBackoff(),
				IOCTLFailureStreak: inj.IOCTLFailureStreak(),
				Stats:              &inj.Stats,
			}
		}
		workerRS := rs
		if a.FixedPartition > 0 {
			workerRS = core.NewFixedRightSizer(a.FixedPartition, cfg.Spec.Topo.TotalCUs())
		}
		w := workers[i]
		seed := cfg.Seed + int64(i)*7919 + 1
		if w.rng == nil {
			w.rng = rand.New(rand.NewSource(seed))
		} else {
			// Reseeding in place restores the exact state rand.New would
			// produce, without the source allocation.
			w.rng.Seed(seed)
		}
		if w.rt == nil {
			w.rt = core.NewRuntime(eng, stack.cp, q, workerRS, rtCfg)
		} else {
			w.rt.Reconfigure(q, workerRS, rtCfg)
		}
		// The cached kernel sequence is a pure function of (model, batch);
		// invalidate it only when the slot's workload changed.
		if w.spec.Model.Name != spec.Model.Name || w.spec.Batch != spec.Batch {
			w.baseDescs = nil
		}
		w.spec = spec
		w.eng = eng
		w.pre = cfg.PreprocessUs
		w.post = cfg.PostprocessUs
		w.jitter = cfg.Jitter
		w.measureStart = measureStart
		w.measureEnd = measureEnd
		// Fresh stats every run: the latency Sample escapes into Result,
		// so its backing store must never be recycled.
		w.stats = WorkerStats{Model: spec.Model.Name, Batch: spec.Batch}
		w.openLoop = cfg.openLoop
		w.chaos = nil
		w.wd = nil
		w.batchStart = 0
		w.tel = newWorkerTelemetry(cfg.Telemetry, spec.Model.Name, i%numGPUs, q.ID)
	}

	// Arm the chaos substrate now that every queue exists: inject the fault
	// timeline, start the SLO guard, and hand each worker its watchdog.
	if inj != nil {
		if cap(st.devs) < numGPUs {
			st.devs = make([]*gpu.Device, numGPUs)
			st.cps = make([]*hsa.CommandProcessor, numGPUs)
		}
		devs := st.devs[:numGPUs]
		cps := st.cps[:numGPUs]
		for g := range gpus {
			devs[g] = gpus[g].dev
			cps[g] = gpus[g].cp
		}
		inj.Arm(devs, cps)

		plan := inj.Plan()
		ch := &chaosHarness{
			eng:          eng,
			stats:        &inj.Stats,
			batchTimeout: plan.WatchdogTimeout,
			window:       plan.SLOWindow,
			p99Threshold: float64(plan.SLOP99),
			cooldown:     plan.SLOCooldown,
			stopAt:       measureEnd,
		}
		if reg := cfg.Telemetry.Registry(); reg != nil {
			ch.sloViolations = reg.Counter("krisp_server_slo_violations_total",
				"SLO-guard windows whose p99 exceeded the threshold")
		}
		for _, w := range workers {
			ch.runtimes = append(ch.runtimes, w.rt)
			w.chaos = ch
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
	}

	if ol := cfg.openLoop; ol != nil {
		ol.measureStart = measureStart
		ol.measureEnd = measureEnd
		ol.start(eng, cfg.Seed)
		for _, w := range workers {
			ol.park(w)
		}
	} else {
		for _, w := range workers {
			w.start()
		}
	}

	// Warm up, then open the measurement window.
	eng.RunUntil(measureStart)
	for _, g := range gpus {
		g.meter.Reset(eng.Now())
		g.dev.ResetUtilization()
	}
	eng.RunUntil(measureEnd)

	var energyJ, busySum float64
	for _, g := range gpus {
		energyJ += g.meter.EnergyJ(measureEnd)
		busySum += g.dev.AvgBusyCUs()
	}
	result := Result{
		Policy:         cfg.Policy,
		WindowUs:       cfg.Measure,
		EnergyJ:        energyJ,
		AvgBusyCUs:     busySum / float64(numGPUs),
		Oversubscribed: (cfg.Policy == policies.ModelRightSize || cfg.Policy == policies.MRSRequest) && anyOversub,
		Interrupted:    eng.Interrupted(),
	}
	if inj != nil {
		for _, w := range workers {
			w.rt.FlushDegradedTime()
		}
		stats := inj.Stats
		result.Faults = &stats
	}
	result.Workers = make([]WorkerStats, 0, len(workers))
	for _, w := range workers {
		result.Workers = append(result.Workers, w.stats)
	}
	result.RPS = metrics.Throughput(result.TotalRequests(), float64(cfg.Measure))
	result.EnergyPerInference = energy.PerInference(result.EnergyJ, result.TotalRequests())
	st.release()
	return result
}

// worker is one closed-loop model worker: it owns a stream and keeps a
// batch in flight at all times.
type worker struct {
	spec   WorkerSpec
	rt     *core.Runtime
	rng    *rand.Rand
	eng    *sim.Engine
	pre    sim.Duration
	post   sim.Duration
	jitter float64

	measureStart, measureEnd sim.Time
	stats                    WorkerStats
	openLoop                 *openLoop
	chaos                    *chaosHarness
	tel                      *workerTelemetry

	// baseDescs caches the closed-loop kernel sequence (fixed batch size);
	// descBuf is the reusable jittered copy. The submitted packets point
	// into it, so it is rebuilt only in the next batch's preDone — after the
	// sequence's last kernel completed, when every first attempt has been
	// dispatched (retries run from the runtime's own copy).
	baseDescs []kernels.Desc
	descBuf   []kernels.Desc

	// The closed loop keeps exactly one batch in flight, so the batch
	// lifecycle lives in worker fields driven by pre-bound hooks instead
	// of a per-batch closure chain — the steady-state loop allocates
	// nothing.
	batchStart sim.Time
	wd         *watchdog
	preFn      func()
	seqFn      func()
	postFn     func()
}

func (w *worker) start() {
	if w.preFn == nil {
		w.preFn = w.preDone
		w.seqFn = w.seqDone
		w.postFn = w.postDone
	}
	w.runBatch()
}

func (w *worker) runBatch() {
	w.batchStart = w.eng.Now()
	if w.chaos != nil {
		w.wd = w.chaos.armWatchdog(w)
	}
	w.eng.After(w.pre, w.preFn)
}

// preDone fires when pre-processing completes: submit the batch's kernel
// sequence.
func (w *worker) preDone() {
	w.rt.RunSequence(w.jitteredKernels(), w.seqFn)
}

// seqDone fires when the last kernel completes: pay post-processing.
func (w *worker) seqDone() { w.eng.After(w.post, w.postFn) }

// postDone closes out the batch and immediately starts the next one.
func (w *worker) postDone() {
	if w.wd != nil {
		w.wd.stop()
		w.wd = nil
	}
	end := w.eng.Now()
	if w.chaos != nil {
		w.chaos.observeBatch(end - w.batchStart)
	}
	w.tel.observeBatch(w.spec.Batch, w.batchStart, end)
	if end > w.measureStart && end <= w.measureEnd {
		w.stats.Batches++
		w.stats.Requests += w.spec.Batch
		w.stats.BatchLatency.Add(end - w.batchStart)
	}
	w.runBatch()
}

// jitteredKernels returns the model's kernel sequence with small
// per-instance duration noise, modelling run-to-run variance so tail
// latencies are meaningful. The closed-loop batch size never changes, so
// the base sequence is built once and the jittered copy lands in the
// worker's reusable buffer instead of a fresh slice per batch.
func (w *worker) jitteredKernels() []kernels.Desc {
	if w.baseDescs == nil {
		w.baseDescs = w.spec.Model.Kernels(w.spec.Batch)
	}
	return w.jittered(w.baseDescs)
}

// jittered applies per-instance duration noise into the worker's reusable
// desc buffer (the input is returned untouched when jitter is off).
func (w *worker) jittered(descs []kernels.Desc) []kernels.Desc {
	if w.jitter == 0 {
		return descs
	}
	if cap(w.descBuf) < len(descs) {
		w.descBuf = make([]kernels.Desc, len(descs))
	}
	out := w.descBuf[:len(descs)]
	copy(out, descs)
	for i := range out {
		f := 1 + w.jitter*(2*w.rng.Float64()-1)
		out[i].Work.WGTime *= sim.Duration(f)
	}
	return out
}
