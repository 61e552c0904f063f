package cluster

import (
	"reflect"
	"testing"

	"krisp/internal/cluster/workload"
	"krisp/internal/llm"
	"krisp/internal/models"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

// llmBaseConfig is a small mixed-fleet LLM experiment: every replica runs
// both phases under continuous batching.
func llmBaseConfig() Config {
	return Config{
		Nodes:       2,
		GPUsPerNode: 1,
		Workloads: []Workload{
			{
				Gen: workload.Constant{RatePerSec: 300},
				LLM: &LLMWorkload{
					Model: llm.Small(),
					Lengths: workload.LengthDist{
						PromptMin: 64, PromptMax: 192,
						OutputMin: 16, OutputMax: 48,
					},
				},
			},
		},
		Tick:     2 * sim.Millisecond,
		Epoch:    50 * sim.Millisecond,
		Duration: 300 * sim.Millisecond,
		Seed:     42,
		Costs:    compressedCosts(),
		Parallel: 1,
	}
}

func TestLLMFleetSmoke(t *testing.T) {
	res := Run(llmBaseConfig())
	if res.Arrivals == 0 {
		t.Fatal("no arrivals generated")
	}
	if res.Completed == 0 {
		t.Fatal("no sequences completed")
	}
	if got := res.Routed + res.Rejected; got != res.Arrivals {
		t.Fatalf("routed(%d)+rejected(%d) = %d, want arrivals %d",
			res.Routed, res.Rejected, got, res.Arrivals)
	}
	if res.Completed > res.Routed {
		t.Fatalf("completed %d > routed %d", res.Completed, res.Routed)
	}
	// Every served sequence generated at least OutputMin tokens.
	if res.TokensOut < res.Completed*16 {
		t.Fatalf("tokens out %d < completed %d x min output 16", res.TokensOut, res.Completed)
	}
	if res.Latency.Len() != res.Completed {
		t.Fatalf("latency samples %d != completed %d", res.Latency.Len(), res.Completed)
	}
	// Mixed fleets never hand KV caches between replicas.
	if res.KVHandoffs != 0 || res.KVHandoffUs != 0 {
		t.Fatalf("mixed fleet billed %d handoffs (%v us)", res.KVHandoffs, res.KVHandoffUs)
	}
	if len(res.PerModel) != 1 || res.PerModel[0].TokensOut != res.TokensOut {
		t.Fatalf("per-model tokens %+v do not fold into result %d", res.PerModel, res.TokensOut)
	}
}

// llmDisaggConfig splits the fleet into prefill and decode replicas with
// per-phase partition sizes.
func llmDisaggConfig() Config {
	cfg := llmBaseConfig()
	cfg.Workloads[0].LLM.Disaggregate = true
	cfg.Workloads[0].LLM.PerPhase = true
	return cfg
}

func TestLLMDisaggregatedHandoffs(t *testing.T) {
	res := Run(llmDisaggConfig())
	if res.Completed == 0 {
		t.Fatal("disaggregated fleet completed nothing")
	}
	// Every served sequence crossed the prefill→decode boundary exactly
	// once, and the transfer time was billed.
	if res.KVHandoffs < res.Completed {
		t.Fatalf("handoffs %d < completed %d", res.KVHandoffs, res.Completed)
	}
	if res.KVHandoffUs <= 0 {
		t.Fatal("no handoff transfer time billed")
	}
	if res.TokensOut == 0 {
		t.Fatal("no tokens generated")
	}
	if got := res.Routed + res.Rejected; got != res.Arrivals {
		t.Fatalf("routed(%d)+rejected(%d) = %d, want arrivals %d",
			res.Routed, res.Rejected, got, res.Arrivals)
	}
}

// TestLLMPerPhaseBeatsShared is the pinned acceptance scenario for
// kernel-wise right-sizing at fleet scale: a decode-heavy disaggregated
// workload on a fixed 4-GPU fleet. With one shared partition size every
// replica costs the prefill knee (~42 CUs on MI50), so at most one fits
// per GPU and the decode tier starves. Per-phase sizing packs decode
// replicas at their ~8-CU knee — several per GPU — so the same demand
// fits and goodput is strictly higher.
func TestLLMPerPhaseBeatsShared(t *testing.T) {
	run := func(perPhase bool) *Result {
		cfg := Config{
			Nodes:       2,
			GPUsPerNode: 2,
			Workloads: []Workload{
				{
					Gen: workload.Constant{RatePerSec: 2000},
					LLM: &LLMWorkload{
						Model: llm.Small(),
						Lengths: workload.LengthDist{
							PromptMin: 128, PromptMax: 128,
							OutputMin: 64, OutputMax: 64,
						},
						Disaggregate: true,
						PerPhase:     perPhase,
					},
				},
			},
			Tick:     2 * sim.Millisecond,
			Epoch:    50 * sim.Millisecond,
			Duration: 300 * sim.Millisecond,
			Seed:     42,
			Costs:    compressedCosts(),
			Parallel: 1,
		}
		return Run(cfg)
	}

	shared := run(false)
	perPhase := run(true)
	if perPhase.Arrivals != shared.Arrivals {
		t.Fatalf("arrival traces diverged: %d vs %d", perPhase.Arrivals, shared.Arrivals)
	}
	// The shared-size plan cannot place its decode tier; per-phase must.
	if shared.Unplaced == 0 {
		t.Fatalf("shared sizing placed everything — scenario lost its pressure: %+v", shared)
	}
	if perPhase.Unplaced != 0 {
		t.Fatalf("per-phase sizing left %d gpulets unplaced", perPhase.Unplaced)
	}
	if perPhase.Completed <= shared.Completed {
		t.Fatalf("per-phase completed %d <= shared %d", perPhase.Completed, shared.Completed)
	}
	if pg, sg := perPhase.GoodputRPS(), shared.GoodputRPS(); pg < sg*1.3 {
		t.Fatalf("per-phase goodput %.1f not >= 1.3x shared %.1f", pg, sg)
	}
	t.Logf("per-phase: completed %d goodput %.1f | shared: completed %d goodput %.1f unplaced %d",
		perPhase.Completed, perPhase.GoodputRPS(), shared.Completed, shared.GoodputRPS(), shared.Unplaced)
}

// TestLLMMatrixIdentical is the LLM determinism guarantee: a disaggregated
// continuous-batching fleet (plus a classic model sharing the merge) must
// produce byte-identical routing logs and results at every worker count,
// with journey sampling on, against the unobserved lockstep reference. Run
// under -race this also proves token-boundary joins stay on the node
// goroutines.
func TestLLMMatrixIdentical(t *testing.T) {
	config := func(workers int, obs *Observability) Config {
		cfg := llmDisaggConfig()
		sq, _ := models.ByName("squeezenet")
		cfg.Workloads = append(cfg.Workloads, Workload{
			Model: sq,
			Batch: 8,
			Gen:   workload.Constant{RatePerSec: 400},
		})
		cfg.Policy = SLOAware
		cfg.Parallel = workers
		cfg.RecordRouting = true
		cfg.Obs = obs
		return cfg
	}

	base := runReference(config(1, nil))
	if base.RoutingLog == "" {
		t.Fatal("no routing decisions recorded")
	}
	if base.KVHandoffs == 0 {
		t.Fatal("matrix scenario exercised no handoffs")
	}
	obs := &Observability{SampleEvery: 1, Monitors: true, FlightCap: 32}
	for _, workers := range []int{1, 0, 2, 8} {
		got := Run(config(workers, obs))
		if got.RoutingLog != base.RoutingLog {
			t.Fatalf("workers=%d: routing log diverged", workers)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: result diverged:\nbase: %+v\ngot:  %+v", workers, base, got)
		}
	}
}

// TestLLMJourneysTelescope: sampled LLM journeys must keep the exact
// stage-telescoping invariant — the seven stamps bracket prefill, KV
// transfer, and every decode step without gaps, so the stage sum equals
// the end-to-end latency. A deliberately tight SLO makes most journeys
// anomalous so the flight recorder retains them.
func TestLLMJourneysTelescope(t *testing.T) {
	cfg := llmDisaggConfig()
	cfg.Workloads[0].SLOUs = 2 * sim.Millisecond
	cfg.Obs = &Observability{SampleEvery: 1, FlightCap: 64}
	f := New(cfg)
	res := f.Run()
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	fl := f.FlightRecorder()
	completed := 0
	for _, j := range fl.Journeys() {
		if j.Outcome != telemetry.JourneyCompleted {
			continue
		}
		completed++
		var sum int64
		for s := 0; s < telemetry.NumStages; s++ {
			d := j.StageUs(s)
			if d < 0 {
				t.Fatalf("journey %d missing stage %s: %+v", j.ID, telemetry.StageNames[s], j)
			}
			sum += d
		}
		if sum != j.LatencyUs() {
			t.Fatalf("journey %d: stage sum %d != latency %d", j.ID, sum, j.LatencyUs())
		}
	}
	if completed == 0 {
		t.Fatalf("no completed LLM journeys retained (flight: %d/%d)", fl.Len(), fl.Total())
	}
}
