// Command perfbench is the repository benchmark. It runs one workload for
// a fixed host-time budget, checks the program's outputs, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports what the workload costs the host. A
// traced run (-trace 1) repeats the workload with a telemetry registry
// attached and a CPU profile taken around the timed calls, and reports the
// per-layer ledger. See README.md for the workloads and metrics.
//
//	go run . -workload fleet-mixed-64 -seed 1 -seconds 30 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"krisp/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-quick, fleet-mixed-64 or fleet-gateway-observed")
	seed := fs.Int64("seed", 42, "seed for the workload's generated inputs")
	seconds := fs.Int("seconds", 30, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 the traced per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	steal0 := stealSeconds()
	var r *report
	var err error
	if *trace == 0 {
		r, err = untracedRun(w, *seed, budget)
	} else {
		r, err = tracedRun(w, *seed, budget)
	}
	steal := -1.0
	if steal1 := stealSeconds(); steal0 >= 0 && steal1 >= 0 {
		steal = steal1 - steal0
	}
	fmt.Fprintf(stdout, "workload: %s seed=%d trace=%d\n", w.name, *seed, *trace)
	fmt.Fprintln(stdout, fingerprint(steal))
	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, m := range r.printed {
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", m.name, r.values[m.name], m.unit)
	}
	fmt.Fprintf(stdout, "operations: %d attempted, %d ok, %d rejected, %d failed\n",
		r.attempted, r.attempted-r.rejected-r.failed, r.rejected, r.failed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: correctness check failed: %v\n", w.name, err)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: err == nil, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range r.json {
		line.Metrics[m.name] = value{r.values[m.name], m.unit}
	}
	b, jerr := json.Marshal(line)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if err != nil {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report is one benchmark run's result.
type report struct {
	attempted, rejected, failed int
	values                      map[string]float64
	// printed lists the metrics shown in the summary; json those in the
	// result line.
	printed, json []metricDef
	notes         []string
}

// simulated are the simulated end-to-end results: deterministic per seed,
// so they are part of the ledger rather than host-cost metrics. A workload
// reports those that apply to it and 0 for the rest.
var simulated = []metricDef{
	{"goodput_rps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"p9999_ms", "ms"},
	{"bad_frac", "frac"},
	{"llm_tokens_per_s", "1/s"},
	{"krisp_norm_rps", "ratio"},
}

// runOnce builds the workload, runs it with the run timed, and collects
// its checked outcome. A collection first, so the timing does not pay for
// the previous run's garbage.
func runOnce(w benchWorkload, seed int64, hub *telemetry.Hub, around func(func()) func()) (hostCost, *outcome, error) {
	inst := w.build(seed, hub)
	body := inst.run
	if around != nil {
		body = around(body)
	}
	runtime.GC()
	cost := measure(body)
	out, err := inst.outcome()
	return cost, out, err
}

// setupSpan is the least host time one set-up sample spans, so that a
// microsecond-scale build is not lost in timer resolution. After each
// repetition of the workload at least setupMin samples are taken, and more
// until they span setupShare of the repetition's wall time, so that a run
// with few long repetitions still gets enough samples for a steady median.
const (
	setupSpan  = 5 * time.Millisecond
	setupMin   = 5
	setupShare = 0.03
)

// setupTimer times the workload's set-up alone. Its samples are taken after
// every repetition rather than in one burst, so that setup_s sees the same
// stretch of host time as wall_s does.
type setupTimer struct {
	w       benchWorkload
	seed    int64
	reps    int // builds per sample
	samples []float64
}

func newSetupTimer(w benchWorkload, seed int64) *setupTimer {
	t := &setupTimer{w: w, seed: seed, reps: 1}
	for t.time() < setupSpan && t.reps < 1<<20 {
		t.reps *= 2
	}
	return t
}

// time builds the workload reps times and returns how long that took.
func (t *setupTimer) time() time.Duration {
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < t.reps; i++ {
		t.w.build(t.seed, nil)
	}
	return time.Since(t0)
}

// sample takes samples of the time of one build after a repetition that
// took repWallS seconds.
func (t *setupTimer) sample(repWallS float64) {
	spent := 0.0
	for i := 0; i < setupMin || spent < setupShare*repWallS; i++ {
		d := t.time().Seconds()
		spent += d
		t.samples = append(t.samples, d/float64(t.reps))
	}
}

// untracedRun repeats the workload until the budget is spent (at least
// once) and reports the median cost of one run.
func untracedRun(w benchWorkload, seed int64, budget time.Duration) (*report, error) {
	start := time.Now()
	r := &report{values: map[string]float64{}, json: endToEnd}
	var walls, cpus, allocs []float64
	var first *outcome
	var failure error
	setup := newSetupTimer(w, seed)
	for n := 1; ; n++ {
		cost, out, err := runOnce(w, seed, nil, nil)
		setup.sample(cost.wallS)
		failure = firstErr(failure, err)
		r.attempted += out.attempted
		r.rejected += out.rejected
		r.failed += out.failed
		if first == nil {
			first = out
		} else if out.digest != first.digest {
			failure = firstErr(failure, fmt.Errorf("run %d produced different simulated output than run 1", n))
		}
		walls = append(walls, cost.wallS)
		cpus = append(cpus, cost.cpuS)
		allocs = append(allocs, cost.allocMB)
		if spent := time.Since(start); spent+spent/time.Duration(n) > budget {
			break
		}
	}
	r.values["wall_s"] = median(walls)
	r.values["cpu_s"] = median(cpus)
	r.values["alloc_mb"] = median(allocs)
	r.values["setup_s"] = median(setup.samples)
	r.values["peak_rss_mb"] = peakRSSMB()
	for k, v := range first.sim {
		r.values[k] = v
	}
	r.values["sim_req_per_cpu_s"] = ratio(float64(first.completed), r.values["cpu_s"])
	r.printed = append(append([]metricDef{}, endToEnd...), simulatedFor(first)...)
	if first.completed > 0 {
		r.printed = append(r.printed, metricDef{"sim_req_per_cpu_s", "1/s"})
	}
	r.notes = append(r.notes, fmt.Sprintf("runs: %d, each from a fresh build; wall_s %s; cpu_s %s",
		len(walls), fmtList(walls), fmtList(cpus)))
	r.notes = append(r.notes, first.notes...)
	return r, failure
}

func fmtList(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return strings.Join(parts, " ")
}

// firstErr keeps the first failure a run meets: a violated check repeats on
// every iteration, so later ones add nothing.
func firstErr(have, err error) error {
	if have != nil {
		return have
	}
	return err
}

// simulatedFor lists the simulated metrics an outcome carries.
func simulatedFor(o *outcome) []metricDef {
	var ms []metricDef
	for _, m := range simulated {
		if _, ok := o.sim[m.name]; ok {
			ms = append(ms, m)
		}
	}
	return ms
}

// tracedRun alternates an untraced run with a traced one (a fresh
// telemetry registry attached and a CPU profile taken around the timed
// section) until the budget is spent, at least once each. Telemetry only
// observes, so both must produce the same simulated output and the traced
// runs the same counts.
func tracedRun(w benchWorkload, seed int64, budget time.Duration) (*report, error) {
	start := time.Now()
	r := &report{values: map[string]float64{}}
	var shares cpuShares
	var profErr error
	profiled := func(body func()) func() {
		return func() {
			var buf bytes.Buffer
			if err := pprof.StartCPUProfile(&buf); err != nil {
				profErr = err
				body()
				return
			}
			body()
			pprof.StopCPUProfile()
			p, err := parseProfile(buf.Bytes())
			if err != nil {
				profErr = err
				return
			}
			attribute(p, &shares)
		}
	}
	var untracedWalls, untracedCPUs, tracedWalls []float64
	spans := map[string][]float64{}
	var first *outcome
	var counts map[string]float64
	var failure error
	for n := 1; ; n++ {
		plainCost, plain, err := runOnce(w, seed, nil, nil)
		failure = firstErr(failure, err)
		hub := telemetry.NewHub(false)
		tracedCost, traced, err := runOnce(w, seed, hub, profiled)
		failure = firstErr(failure, err)
		if profErr != nil {
			return r, fmt.Errorf("cpu profile: %w", profErr)
		}
		if traced.digest != plain.digest {
			failure = firstErr(failure, errors.New("the traced run's simulated output differs from the untraced run's"))
		}
		c := scrape(hub.Registry())
		for k, v := range traced.counts {
			c[k] = v
		}
		if first == nil {
			first, counts = traced, c
		} else if traced.digest != first.digest {
			failure = firstErr(failure, fmt.Errorf("pair %d produced different simulated output than pair 1", n))
		} else if err := sameCounts(counts, c); err != nil {
			failure = firstErr(failure, fmt.Errorf("pair %d: %w", n, err))
		}
		r.attempted += plain.attempted + traced.attempted
		r.rejected += plain.rejected + traced.rejected
		r.failed += plain.failed + traced.failed
		untracedWalls = append(untracedWalls, plainCost.wallS)
		untracedCPUs = append(untracedCPUs, plainCost.cpuS)
		tracedWalls = append(tracedWalls, tracedCost.wallS)
		for k, v := range traced.spans {
			spans[k] = append(spans[k], v)
		}
		if spent := time.Since(start); spent+spent/time.Duration(n) > budget {
			break
		}
	}

	v := r.values
	sum := 0.0
	for _, l := range layers {
		v[l+".cpu_frac"] = shares.frac(l)
		sum += v[l+".cpu_frac"]
	}
	v["runtime.gc_frac"] = shares.gcFrac()
	if math.Abs(sum-1) > 0.02 {
		failure = firstErr(failure, fmt.Errorf("layer CPU shares sum to %.4f, want 1 ± 0.02", sum))
	}
	for k, x := range counts {
		v[k] = x
	}
	for k, x := range first.sim {
		v[k] = x
	}
	for k, xs := range spans {
		v[k] = median(xs)
	}
	wall, cpu := median(untracedWalls), median(untracedCPUs)
	v["gateway.hedge_win_ratio"] = ratio(v["gateway.hedge_wins"], v["gateway.hedges"])
	v["hsa.ioctls_per_dispatch"] = ratio(v["hsa.ioctls"], v["hsa.dispatches"])
	v["core.retry_ratio"] = ratio(v["core.retries"], v["gpu.launches"])
	v["gpu.host_ns_per_launch"] = ratio(wall*1e9, v["gpu.launches"])
	v["cluster.host_us_per_request"] = ratio(wall*1e6, float64(first.completed))
	v["telemetry.overhead_frac"] = median(tracedWalls)/wall - 1
	v["sim_req_per_cpu_s"] = ratio(float64(first.completed), cpu)
	v["latency_samples"] = float64(first.completed)
	r.json = perLayer()
	r.printed = r.json
	r.notes = append(r.notes, fmt.Sprintf("pairs: %d untraced + traced; profile: %.1f s of CPU samples",
		len(untracedWalls), float64(shares.total)/1e9))
	r.notes = append(r.notes, first.notes...)
	return r, failure
}

// sameCounts reports the first count that differs between two traced runs.
func sameCounts(want, got map[string]float64) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			return fmt.Errorf("count %s = %v, first traced run had %v", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("traced runs scraped %d and %d counts", len(want), len(got))
	}
	return nil
}

// perLayer lists the ledger of a traced run. BENCHMARK.json lists the same
// names.
func perLayer() []metricDef {
	var ms []metricDef
	for _, l := range layers {
		ms = append(ms, metricDef{l + ".cpu_frac", "frac"})
	}
	ms = append(ms, metricDef{"runtime.gc_frac", "frac"})
	for _, rc := range registryCounts {
		ms = append(ms, metricDef{rc.metric, "count"})
	}
	ms = append(ms,
		metricDef{"cluster.unplaced", "count"},
		metricDef{"gateway.shed_deadline", "count"},
		metricDef{"llm.tokens", "count"},
		metricDef{"llm.kv_handoffs", "count"},
		metricDef{"llm.preemptions", "count"},
		metricDef{"hsa.dispatch_wait_p50_us", "us"},
		metricDef{"hsa.dispatch_wait_p99_us", "us"},
		metricDef{"llm.kv_handoff_ms", "ms"},
		metricDef{"gateway.hedge_win_ratio", "ratio"},
		metricDef{"hsa.ioctls_per_dispatch", "ratio"},
		metricDef{"core.retry_ratio", "ratio"},
		metricDef{"gpu.host_ns_per_launch", "ns"},
		metricDef{"cluster.host_us_per_request", "us"},
		metricDef{"telemetry.overhead_frac", "frac"},
	)
	for _, id := range paperIDs {
		ms = append(ms, metricDef{"bench." + id + "_s", "s"})
	}
	ms = append(ms, metricDef{"cluster.run_s", "s"})
	ms = append(ms, simulated...)
	ms = append(ms,
		metricDef{"latency_samples", "count"},
		metricDef{"sim_req_per_cpu_s", "1/s"},
	)
	return ms
}
