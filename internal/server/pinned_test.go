package server

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"krisp/internal/faults"
	"krisp/internal/policies"
	"krisp/internal/telemetry"
	"krisp/internal/trace"
)

// pinDigest fingerprints a serving result: %+v of the value (latency
// samples included) with the fault counters printed through their pointer,
// because %+v renders a nested pointer as an address, plus any extra bytes
// the case produced (a trace CSV).
func pinDigest(v any, f *faults.Stats, extra []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%+v|", v, f)
	h.Write(extra)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// pinnedCase is one harness configuration whose output is pinned.
type pinnedCase struct {
	name string
	want string
	run  func(t *testing.T) string
}

func pinnedCases(t *testing.T) []pinnedCase {
	t.Helper()
	sq := mustModel(t, "squeezenet")
	mb := mustModel(t, "mobilenet")
	ax := mustModel(t, "alexnet")
	closed := func(cfg Config) func(*testing.T) string {
		return func(t *testing.T) string {
			r := Run(cfg)
			if r.TotalRequests() == 0 {
				t.Fatal("degenerate case: nothing completed")
			}
			f := r.Faults
			r.Faults = nil
			return pinDigest(r, f, nil)
		}
	}
	open := func(cfg Config, arrival Arrival) func(*testing.T) string {
		return func(t *testing.T) string {
			r := RunOpenLoop(cfg, arrival)
			if r.RequestLatency.Len() == 0 {
				t.Fatal("degenerate case: no request latencies")
			}
			f := r.Faults
			r.Faults = nil
			return pinDigest(r, f, nil)
		}
	}
	mixed := func(n int) []WorkerSpec {
		all := []WorkerSpec{{Model: sq, Batch: 32}, {Model: mb, Batch: 32}, {Model: ax, Batch: 64}, {Model: sq, Batch: 64}}
		return all[:n]
	}
	base := func(p policies.Kind, gpus, workers int) Config {
		return Config{Policy: p, GPUs: gpus, Workers: mixed(workers), Seed: 21, Warmup: 5_000, Measure: 80_000}
	}

	want := map[string]string{
		"mps-default/gpus=1":      "5ddb15ef95cf9a62",
		"mps-default/gpus=2":      "728092262e743432",
		"static-equal/gpus=1":     "76dcfa85d588a206",
		"static-equal/gpus=2":     "2886adabadece05c",
		"model-right-size/gpus=1": "f115e17560981ce2",
		"model-right-size/gpus=2": "96e351b536c5ac91",
		"krisp-o/gpus=1":          "7e0acded7d4d5a27",
		"krisp-o/gpus=2":          "5b1cf4ee57fee508",
		"krisp-i/gpus=1":          "1bd5addf59bf1692",
		"krisp-i/gpus=2":          "72c7f1a151e2aa3c",
		"mrs-request/gpus=1":      "63505997783230a2",
		"force-emulation":         "2df591fccaff8015",
		"overlap-limit":           "fc0b284a0ddc92e0",
		"no-jitter":               "2a0834644c1d6a18",
		"trace":                   "7c54db93f72b3e0f",
		"chaos":                   "26c03cd38a4b6d88",
		"chaos-static-equal":      "d3d2b823d246a50e",
		"chaos-telemetry":         "c550d4817d0b9f91",
		"open-loop/rate=800":      "4aa0792505fa5101",
		"open-loop/rate=20000":    "e19144cf6ae91c6b",
		"open-loop/max-batch=24":  "f840a7491f4da18f",
	}

	var cases []pinnedCase
	add := func(name string, run func(*testing.T) string) {
		cases = append(cases, pinnedCase{name: name, want: want[name], run: run})
	}
	for _, p := range append(policies.All(), policies.MRSRequest) {
		for gpus := 1; gpus <= 2; gpus++ {
			if p == policies.MRSRequest && gpus == 2 {
				continue
			}
			// 3 workers on one GPU, 4 spread over two.
			add(fmt.Sprintf("%s/gpus=%d", p, gpus), closed(base(p, gpus, gpus+2)))
		}
	}
	emu := base(policies.KRISPI, 1, 3)
	emu.ForceEmulation = true
	add("force-emulation", closed(emu))
	lim := 12
	ol := base(policies.KRISPO, 2, 4)
	ol.OverlapLimit = &lim
	add("overlap-limit", closed(ol))
	nj := base(policies.KRISPI, 1, 2)
	nj.Jitter = -1
	add("no-jitter", closed(nj))
	add("trace", func(t *testing.T) string {
		cfg := base(policies.KRISPI, 1, 3)
		cfg.Trace = &trace.Trace{}
		r := Run(cfg)
		var csv bytes.Buffer
		if err := cfg.Trace.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if cfg.Trace.Len() == 0 {
			t.Fatal("trace recorded nothing")
		}
		return pinDigest(r, r.Faults, csv.Bytes())
	})
	add("chaos", closed(reuseScenarios(t)["chaos"]()))
	// Stream masks under a fault plan: flaky queue-mask IOCTLs, and CU
	// kills timed to the instants the serialized IOCTLs complete.
	se := base(policies.StaticEqual, 2, 4)
	se.Faults = &faults.Plan{
		Seed: 6,
		CUKills: []faults.CUKill{
			{At: 20, GPU: 0, CU: 0}, {At: 40, GPU: 1, CU: 31}, {At: 60, GPU: 0, CU: 45},
		},
		IOCTL: faults.IOCTLFaults{FailProb: 0.2},
	}
	add("chaos-static-equal", closed(se))
	add("chaos-telemetry", func(t *testing.T) string {
		cfg := base(policies.KRISPO, 2, 4)
		cfg.Faults = &faults.Plan{
			Seed:        4,
			CUKills:     []faults.CUKill{{At: 9_000, GPU: 1, CU: 3}},
			Kernels:     faults.KernelFaults{StragglerProb: 0.02},
			SLOP99:      4_000,
			SLOWindow:   20_000,
			SLOCooldown: 30_000,
		}
		cfg.Telemetry = telemetry.NewHub(true)
		r := Run(cfg)
		var out bytes.Buffer
		if err := cfg.Telemetry.Registry().WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Telemetry.Trace().WriteChromeTrace(&out); err != nil {
			t.Fatal(err)
		}
		f := r.Faults
		r.Faults = nil
		return pinDigest(r, f, out.Bytes())
	})
	openCfg := Config{
		Policy:  policies.KRISPI,
		Workers: []WorkerSpec{{Model: sq, Batch: 16}, {Model: sq, Batch: 16}},
		Seed:    5, Warmup: 5_000, Measure: 60_000,
	}
	add("open-loop/rate=800", open(openCfg, Arrival{RatePerSec: 800}))
	add("open-loop/rate=20000", open(openCfg, Arrival{RatePerSec: 20_000}))
	// Batches larger than the workers' configured size.
	add("open-loop/max-batch=24", open(openCfg, Arrival{RatePerSec: 20_000, MaxBatch: 24, Timeout: 300}))
	return cases
}

// TestHarnessOutputPinned pins the paper harness's serving output: each
// case's digest was recorded before the closed-loop and Poisson drivers
// moved onto Node/Replica, and any change to the event order, the seeds or
// the per-kernel jitter moves it.
func TestHarnessOutputPinned(t *testing.T) {
	for _, c := range pinnedCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(t); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}
