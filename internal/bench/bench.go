// Package bench is the evaluation harness: one runner per table and figure
// of the paper's evaluation section (§VI), each regenerating the same rows
// or series the paper reports, printed as aligned text tables.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Table3  — workload inventory: kernel counts, model right-size, p95
//	Table4  — max concurrent workers without SLO violation
//	Fig3    — model sensitivity to CU restriction
//	Fig4    — per-kernel minimum-required-CU traces (albert, resnext101)
//	Fig6    — kernel minCU vs kernel size and input size scatter
//	Fig7    — CU distribution policy illustration (19 CUs)
//	Fig8    — vector-multiply characterization across distribution policies
//	Fig12   — emulation overhead accounting (L_over)
//	Fig13a  — normalized throughput, 1/2/4 workers x 5 policies
//	Fig13b  — tail latency vs SLO
//	Fig13c  — energy per inference
//	Fig14   — batch-size sensitivity (geomean normalized RPS, batch 16/8)
//	Fig15   — mixed-model co-location throughput distributions
//	Fig16   — oversubscription (overlap limit) sensitivity
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"krisp/internal/metrics"
	"krisp/internal/models"
	"krisp/internal/parallel"
	"krisp/internal/policies"
	"krisp/internal/server"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

// newEngine returns a fresh simulation engine for closed-form experiments.
func newEngine() *sim.Engine { return sim.New() }

// Options configures a harness run.
type Options struct {
	// Seed drives the simulations' jitter; fixed by default for
	// reproducible tables.
	Seed int64
	// Quick shrinks sweeps and measurement windows for smoke runs.
	Quick bool
	// Parallel is the worker count for grid experiments (Table IV, Fig 13,
	// Fig 14, Fig 15, Fig 16). Values <= 1 run every cell inline on the
	// calling goroutine. Each grid cell is a pure function of its
	// configuration and the seed — one engine and one RNG per cell, no
	// shared mutable state — so any worker count produces byte-identical
	// output; Parallel only changes wall-clock time.
	Parallel int
	// Telemetry, when non-nil, is attached to every simulation the harness
	// runs so experiment sweeps feed the metrics registry and (if the hub
	// carries a tracer) the Chrome trace. Telemetry only observes — cell
	// output is byte-identical with or without it.
	Telemetry *telemetry.Hub
}

// DefaultOptions returns the settings used for the published tables.
func DefaultOptions() Options { return Options{Seed: 42} }

// Harness runs experiments, memoizing the expensive shared evaluations.
type Harness struct {
	opts Options
	// evals memoizes MainEval by batch size.
	evals map[int]*MainEval
	// profiles shares install-time profiling (performance DBs and model
	// right-sizes) across all cells of a grid, including parallel ones.
	profiles profileStore
	// noProfileShare disables the shared store so determinism tests can
	// compare against per-cell profiling.
	noProfileShare bool
	// runs memoizes runServer by configuration: the isolated baselines of
	// Table III, the main evaluation, the ablation and the extensions, and
	// Fig. 12's native KRISP-I run, are the same simulations. runMu guards
	// the map for parallel grids. It and evals are made on first use, so
	// New is a single allocation.
	runMu sync.Mutex
	runs  map[runKey]server.Result
}

// runKey identifies one runServer configuration. Every other input of the
// run comes from the harness options, so equal keys give equal results.
type runKey struct {
	model          string
	batch, workers int
	policy         policies.Kind
	overlap        int
	limited        bool
}

// New creates a Harness.
func New(opts Options) *Harness {
	return &Harness{opts: opts}
}

// WorkerCounts are the concurrency levels of the paper's main evaluation.
var WorkerCounts = []int{1, 2, 4}

// Cell is one (model, policy, workers) measurement of the main evaluation.
type Cell struct {
	Model   string
	Policy  policies.Kind
	Workers int
	Batch   int

	// RPS is aggregate requests/second; NormRPS is normalized to one
	// isolated worker of the same model.
	RPS, NormRPS float64
	// P95Ms is the worst per-worker p95 batch latency in milliseconds;
	// SLOMs is the 2x-isolated-p95 target; Violation marks P95Ms > SLOMs.
	P95Ms, SLOMs float64
	Violation    bool
	// EnergyPerInf is joules per request; EnergyReduction is the relative
	// saving versus the isolated baseline (positive = less energy).
	EnergyPerInf, EnergyReduction float64
	// Oversubscribed marks Model Right-Size cells whose partitions
	// overlap (the paper's open circles).
	Oversubscribed bool
}

// MainEval is the shared measurement grid behind Fig. 13, Fig. 14 and
// Table IV: every Table III model x 5 policies x 1/2/4 workers.
type MainEval struct {
	Batch    int
	Isolated map[string]server.Result // per model: 1 worker, MPS Default
	Cells    []Cell
}

// Cell returns the measurement for (model, policy, workers), or nil.
func (e *MainEval) Cell(model string, policy policies.Kind, workers int) *Cell {
	for i := range e.Cells {
		c := &e.Cells[i]
		if c.Model == model && c.Policy == policy && c.Workers == workers {
			return c
		}
	}
	return nil
}

// GeomeanNormRPS aggregates normalized throughput across models for one
// policy and worker count.
func (e *MainEval) GeomeanNormRPS(policy policies.Kind, workers int) float64 {
	var vals []float64
	for i := range e.Cells {
		c := &e.Cells[i]
		if c.Policy == policy && c.Workers == workers {
			vals = append(vals, c.NormRPS)
		}
	}
	return metrics.Geomean(vals)
}

// evalModels returns the models included in the main evaluation.
func (h *Harness) evalModels() []models.Model {
	ms := models.TableIII()
	if h.opts.Quick {
		return ms[:3]
	}
	return ms
}

// runServer executes one serving configuration, or returns the memoized
// result of an identical earlier one.
func (h *Harness) runServer(m models.Model, batch, workers int, policy policies.Kind, overlap *int) server.Result {
	key := runKey{model: m.Name, batch: batch, workers: workers, policy: policy}
	if overlap != nil {
		key.overlap, key.limited = *overlap, true
	}
	h.runMu.Lock()
	res, ok := h.runs[key]
	h.runMu.Unlock()
	if ok {
		return res
	}
	specs := make([]server.WorkerSpec, workers)
	for i := range specs {
		specs[i] = server.WorkerSpec{Model: m, Batch: batch}
	}
	scale := 1.0
	if h.opts.Quick {
		scale = 0.25
	}
	cfg := server.Config{
		Policy:       policy,
		Workers:      specs,
		Seed:         h.opts.Seed,
		OverlapLimit: overlap,
		MeasureScale: scale,
	}
	h.applyProfiles(&cfg)
	res = server.Run(cfg)
	// A memoized Result is shared between grid goroutines, and a latency
	// sample builds its sorted copy on the first percentile read: build
	// it now, while the Result is still private.
	for i := range res.Workers {
		res.Workers[i].BatchLatency.P95()
	}
	h.runMu.Lock()
	if h.runs == nil {
		h.runs = make(map[runKey]server.Result)
	}
	h.runs[key] = res
	h.runMu.Unlock()
	return res
}

// gridMap evaluates fn for every job index in [0, n) and returns the
// results in index order. With opts.Parallel > 1 the jobs fan out over a
// bounded worker pool; otherwise they run inline. Grid jobs are pure
// functions of their index (each builds its own engine and RNG from the
// harness seed), so the fan-out cannot change any result — only
// wall-clock time.
func gridMap[T any](h *Harness, n int, fn func(i int) T) []T {
	if h.opts.Parallel > 1 && n > 1 {
		out, err := parallel.Map(context.Background(), h.opts.Parallel, n,
			func(_ context.Context, i int) (T, error) { return fn(i), nil })
		if err != nil {
			// fn cannot return an error, so this is a job panic; re-raise
			// to keep serial and parallel failure modes alike.
			panic(err)
		}
		return out
	}
	out := make([]T, n)
	for i := range out {
		out[i] = fn(i)
	}
	return out
}

// MainEval measures (and memoizes) the full policy x workers grid at the
// given batch size. The measurement fans out in two phases — isolated
// baselines, then every (model, policy, workers) cell — across
// Options.Parallel workers; cells are assembled in the fixed nested order
// regardless of completion order.
func (h *Harness) MainEval(batch int) *MainEval {
	if e, ok := h.evals[batch]; ok {
		return e
	}
	ms := h.evalModels()

	// Phase 1: per-model isolated baselines (the normalization anchors).
	isolated := gridMap(h, len(ms), func(i int) server.Result {
		return h.runServer(ms[i], batch, 1, policies.MPSDefault, nil)
	})

	// Phase 2: the full grid, one job per (model, policy, workers) cell in
	// the same nested order the serial loops used.
	type cellJob struct {
		model   models.Model
		policy  policies.Kind
		workers int
	}
	var jobs []cellJob
	for _, m := range ms {
		for _, p := range policies.All() {
			for _, w := range WorkerCounts {
				jobs = append(jobs, cellJob{m, p, w})
			}
		}
	}
	results := gridMap(h, len(jobs), func(i int) server.Result {
		j := jobs[i]
		return h.runServer(j.model, batch, j.workers, j.policy, nil)
	})

	e := &MainEval{Batch: batch, Isolated: make(map[string]server.Result)}
	for i, m := range ms {
		e.Isolated[m.Name] = isolated[i]
	}
	for i, j := range jobs {
		iso := e.Isolated[j.model.Name]
		isoP95 := iso.MaxP95() / 1000
		res := results[i]
		cell := Cell{
			Model:          j.model.Name,
			Policy:         j.policy,
			Workers:        j.workers,
			Batch:          batch,
			RPS:            res.RPS,
			NormRPS:        res.RPS / iso.RPS,
			P95Ms:          res.MaxP95() / 1000,
			SLOMs:          2 * isoP95,
			EnergyPerInf:   res.EnergyPerInference,
			Oversubscribed: res.Oversubscribed,
		}
		cell.Violation = cell.P95Ms > cell.SLOMs
		if iso.EnergyPerInference > 0 {
			cell.EnergyReduction = 1 - cell.EnergyPerInf/iso.EnergyPerInference
		}
		e.Cells = append(e.Cells, cell)
	}
	if h.evals == nil {
		h.evals = make(map[int]*MainEval)
	}
	h.evals[batch] = e
	return e
}

// ---------------------------------------------------------------------------
// Rendering helpers.

// table accumulates rows and renders them column-aligned.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addHeader(cols ...string) { t.header = cols }

func (t *table) addRow(cols ...string) { t.rows = append(t.rows, cols) }

func (t *table) render(w io.Writer) {
	widths := make([]int, 0)
	measure := func(cols []string) {
		for i, c := range cols {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		total := -2
		for _, wd := range widths {
			total += wd + 2
		}
		for i := 0; i < total; i++ {
			fmt.Fprint(w, "-")
		}
		fmt.Fprintln(w)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
}

func title(w io.Writer, s string) {
	fmt.Fprintf(w, "\n=== %s ===\n", s)
}

func sortedModelNames(e *MainEval) []string {
	seen := map[string]bool{}
	var names []string
	for i := range e.Cells {
		if !seen[e.Cells[i].Model] {
			seen[e.Cells[i].Model] = true
			names = append(names, e.Cells[i].Model)
		}
	}
	sort.Strings(names)
	return names
}
