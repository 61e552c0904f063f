package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"krisp/internal/cluster"
	"krisp/internal/cluster/workload"
	"krisp/internal/sim"
	"krisp/internal/telemetry"
)

// tinyFleetConfig is a two-node fleet small enough for a unit test.
func tinyFleetConfig() cluster.Config {
	return cluster.Config{
		Nodes:       2,
		GPUsPerNode: 2,
		Workloads: []cluster.Workload{
			{Model: mustModel("squeezenet"), Batch: 8, Gen: workload.Constant{RatePerSec: 1200}},
		},
		Policy:   cluster.SLOAware,
		Epoch:    50 * sim.Millisecond,
		Duration: 200 * sim.Millisecond,
		Seed:     7,
		Costs:    compressedCosts,
	}
}

func TestScrapedCountsRepeat(t *testing.T) {
	scrapeRun := func() (map[string]float64, *cluster.Result) {
		hub := telemetry.NewHub(false)
		cfg := tinyFleetConfig()
		cfg.Telemetry = hub
		res := cluster.Run(cfg)
		return scrape(hub.Registry()), res
	}
	a, res := scrapeRun()
	b, _ := scrapeRun()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("counts differ across identical runs:\n%v\n%v", a, b)
	}
	if err := checkFleet(res, false); err != nil {
		t.Fatal(err)
	}
	if a["gpu.launches"] == 0 {
		t.Fatal("no kernel launches counted")
	}
	if a["cluster.routed"] != float64(res.Routed) {
		t.Errorf("cluster.routed = %v, result says %d", a["cluster.routed"], res.Routed)
	}
	if a["hsa.barriers"] == 0 && a["gpu.launches"] != a["hsa.dispatches"] {
		t.Errorf("no barriers, yet %v launches != %v dispatches", a["gpu.launches"], a["hsa.dispatches"])
	}
}

func TestBucketQuantile(t *testing.T) {
	le := []float64{1, 2, 4, math.Inf(1)}
	cum := []uint64{10, 50, 99, 100}
	for _, c := range []struct{ q, want float64 }{{0.05, 1}, {0.5, 2}, {0.99, 4}, {1, 4}} {
		if got := bucketQuantile(le, cum, c.q); got != c.want {
			t.Errorf("q%v = %v, want %v", c.q, got, c.want)
		}
	}
	if got := bucketQuantile(nil, nil, 0.5); got != 0 {
		t.Errorf("empty histogram: %v, want 0", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the benchmark's
// runner reads, in step with the metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program prints %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
