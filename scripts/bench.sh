#!/usr/bin/env sh
# scripts/bench.sh — regenerate BENCH_PR10.json, the performance record for
# the LLM serving PR: the continuous-batching token loop, per-phase
# right-sizing, and the disaggregated LLM fleet (shared vs per-phase),
# plus everything carried forward — the fleet-scaling sweep (4/16/64 nodes
# on the fleet's one scheduler, serial with Parallel 1 and pooled with
# Parallel 0), the journey-sampling overhead sweep, the
# tracked 3-node fleet throughput benchmarks, and the dispatch-path
# microbenchmarks. Hard guards: gateway admission at 0 allocs/op, every
# routing-decision policy at 0, routing with journeys off at 0, the LLM
# continuous-batching token loop at 0, server.ServeOneBatchKRISP at or
# under 20 allocs/op, and — the PR10 acceptance gate — the LLM-off
# 16-node pooled fleet throughput must stay within noise of the
# PR9 baseline (the LLM hooks must cost nothing when no LLM workload is
# configured); any regression fails the script.
#
# The scaling sweep runs -count times and keeps the best (minimum ns/op)
# of each benchmark — on a shared 1-CPU container, run-to-run noise is
# ±20-30% and the minimum is the closest observable to the noise-free
# time. Baseline constants below were measured the same way (best of 3 at
# -benchtime 20x) on this PR's parent commit with identical configs.
#
# Usage: scripts/bench.sh [benchtime] [scale_benchtime] [scale_count]
#        (defaults: 1s, 20x, 3)
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-1s}"
scale_benchtime="${2:-20x}"
scale_count="${3:-3}"
benchtxt=/tmp/krisp_bench_dispatch.txt
clustertxt=/tmp/krisp_bench_cluster.txt
gatewaytxt=/tmp/krisp_bench_gateway.txt
scaletxt=/tmp/krisp_bench_scaling.txt

out=BENCH_PR10.json

echo "== dispatch-path + LLM microbenchmarks (benchtime=$benchtime) =="
go test -run '^$' -bench '.' -benchmem -benchtime "$benchtime" \
    ./internal/alloc ./internal/hsa ./internal/gpu ./internal/server ./internal/sched ./internal/sim ./internal/telemetry | tee "$benchtxt"

echo "== cluster fleet benchmarks (benchtime=$benchtime) =="
go test -run '^$' -bench 'FleetThroughput|FleetRoutingDecision|RouteWithJourneys|LLMFleet' -benchmem \
    -benchtime "$benchtime" ./internal/cluster | tee "$clustertxt"

echo "== fleet scaling + journey overhead sweep (benchtime=$scale_benchtime, count=$scale_count, best-of) =="
go test -run '^$' -bench 'FleetScaling' -benchmem \
    -benchtime "$scale_benchtime" -count "$scale_count" \
    ./internal/cluster | tee "$scaletxt"

echo "== gateway benchmarks (benchtime=$benchtime) =="
go test -run '^$' -bench '.' -benchmem -benchtime "$benchtime" \
    ./internal/cluster/gateway | tee "$gatewaytxt"

# Pull "name value unit" fields out of benchstat-style output.
field() { # $1 = file, $2 = benchmark name (after Benchmark), $3 = unit
    awk -v name="Benchmark$2" -v unit="$3" '
        $1 ~ "^"name"(-[0-9]+)?$" { for (i = 2; i < NF; i++) if ($(i+1) == unit) { print $i; exit } }
    ' "$1"
}

# Best (minimum) value of a repeated benchmark for a unit where lower is
# better; best_max for requests/s where higher is better.
best_min() { # $1 = file, $2 = benchmark name, $3 = unit
    awk -v name="Benchmark$2" -v unit="$3" '
        $1 ~ "^"name"(-[0-9]+)?$" {
            for (i = 2; i < NF; i++) if ($(i+1) == unit && (!seen || $i+0 < best)) { best = $i+0; seen = 1 }
        }
        END { if (seen) print best }
    ' "$1"
}
best_max() { # $1 = file, $2 = benchmark name, $3 = unit
    awk -v name="Benchmark$2" -v unit="$3" '
        $1 ~ "^"name"(-[0-9]+)?$" {
            for (i = 2; i < NF; i++) if ($(i+1) == unit && (!seen || $i+0 > best)) { best = $i+0; seen = 1 }
        }
        END { if (seen) print best }
    ' "$1"
}

gateway_field() { field "$gatewaytxt" "$1" "$2"; }
cluster_field() { field "$clustertxt" "$1" "$2"; }
bench_field()   { field "$benchtxt"   "$1" "$2"; }

admission_allocs=$(gateway_field GatewayAdmission allocs/op)
if [ "$admission_allocs" != "0" ]; then
    echo "FAIL: gateway admission allocates ($admission_allocs allocs/op, want 0)" >&2
    exit 1
fi

serve_allocs=$(bench_field ServeOneBatchKRISP allocs/op)
if [ "$serve_allocs" -gt 20 ]; then
    echo "FAIL: server.ServeOneBatchKRISP allocates ($serve_allocs allocs/op, want <= 20)" >&2
    exit 1
fi

llm_batch_allocs=$(bench_field LLMContinuousBatch allocs/op)
if [ "$llm_batch_allocs" != "0" ]; then
    echo "FAIL: LLM continuous-batching token loop allocates ($llm_batch_allocs allocs/op, want 0)" >&2
    exit 1
fi

for pol in round-robin least-outstanding p2c slo-aware; do
    pol_allocs=$(cluster_field "FleetRoutingDecision/$pol" allocs/op)
    if [ "$pol_allocs" != "0" ]; then
        echo "FAIL: routing decision ($pol) allocates ($pol_allocs allocs/op, want 0)" >&2
        exit 1
    fi
done

journeys_off_allocs=$(cluster_field 'RouteWithJourneys/off' allocs/op)
if [ "$journeys_off_allocs" != "0" ]; then
    echo "FAIL: routing with journeys off allocates ($journeys_off_allocs allocs/op, want 0)" >&2
    exit 1
fi

# Pre-PR baselines carried forward, measured with this same methodology
# (best of 3 at -benchtime 20x) on the respective parent commits.
pr7_scaling_lockstep_ns_4=3915864
pr7_scaling_lockstep_ns_16=11999017
pr7_scaling_lockstep_ns_64=41429254
pr7_serve_ns=632312
pr7_serve_allocs=213
pr7_p2c_ns=251.7

# PR9 baselines (BENCH_PR9.json, same host/methodology): the 16-node
# event-horizon sweep this PR's LLM-off acceptance gate is judged
# against. That run is today's nodes=16/pooled row: the same wake-heap
# scheduler on the same workload at Parallel 0. The sweep workload configures no LLM workload, so it exercises
# exactly the path the gate protects: with LLM off the fleet must consume
# zero extra RNG draws, run byte-identical to PR9, and lose no
# throughput. The floor is 0.65x — run-to-run noise on this shared
# container is ±20-30%, so anything above it is "within noise" while a
# real regression (the LLM hooks leaking work onto the classic path)
# lands well below.
pr9_scaling_eh_ns_16=21194909
pr9_scaling_eh_rps_16=87238

llm_off_rps=$(best_max "$scaletxt" "FleetScaling/nodes=16/pooled" requests/s)
llm_off_ok=$(awk -v now="$llm_off_rps" -v base="$pr9_scaling_eh_rps_16" \
    'BEGIN { print (now >= 0.65 * base) ? "ok" : "fail" }')
if [ "$llm_off_ok" != "ok" ]; then
    echo "FAIL: LLM-off fleet throughput regressed ($llm_off_rps req/s vs PR9 baseline $pr9_scaling_eh_rps_16, want >= 0.65x)" >&2
    exit 1
fi

# ratio prints a/b to 4 decimals (overhead factors).
ratio() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.4f", a / b }'; }

scale_entry() { # $1 = nodes, $2 = mode
    printf '{"time": %s, "throughput": %s}' \
        "$(best_min "$scaletxt" "FleetScaling/nodes=$1/$2" ns/op)" \
        "$(best_max "$scaletxt" "FleetScaling/nodes=$1/$2" requests/s)"
}

speedup() { # $1 = baseline ns, $2 = nodes (pooled vs pr7 lockstep)
    now=$(best_min "$scaletxt" "FleetScaling/nodes=$2/pooled" ns/op)
    awk -v b="$1" -v n="$now" 'BEGIN { printf "%.2f", b / n }'
}

journey_off_ns=$(best_min "$scaletxt" "FleetScalingJourneys/off" ns/op)
journey_1pct_ns=$(best_min "$scaletxt" "FleetScalingJourneys/1pct" ns/op)
journey_all_ns=$(best_min "$scaletxt" "FleetScalingJourneys/all" ns/op)
journey_off_rps=$(best_max "$scaletxt" "FleetScalingJourneys/off" requests/s)
journey_1pct_rps=$(best_max "$scaletxt" "FleetScalingJourneys/1pct" requests/s)
journey_all_rps=$(best_max "$scaletxt" "FleetScalingJourneys/all" requests/s)

cat > "$out" <<EOF
{
  "pr": 10,
  "title": "LLM autoregressive serving: prefill/decode phases, KV-cache accounting, continuous batching, per-phase right-sizing",
  "host_note": "measured on a shared 1-CPU container (nproc=1), run-to-run noise +/-20-30%, hence best-of-N minima. This PR adds the internal/llm model family, the continuous-batching token loop in internal/server, KV-cache admission/preemption on the device ledger, per-phase (prefill vs decode) kernel-wise right-sizing in internal/sched, and disaggregated prefill->decode routing with KV handoffs in internal/cluster. The llm section measures the new paths: the token loop must run allocation-free at steady state, right-sizing is one cached planner query per phase pair, and the fleet rows are a 2x2-GPU disaggregated fleet at shared vs per-phase partition sizes (wall-side rates; the capacity payoff — per-phase packs several decode replicas per GPU where the shared size cannot place the decode tier — is pinned by TestLLMPerPhaseBeatsShared). The llm_off_gate row is the acceptance gate: with no LLM workload configured the fleet consumes zero extra RNG draws and must hold PR9 throughput. Carried-forward sections (scaling, journeys, fleet, guards, microbenchmarks) keep their PR9 shapes and baselines.",
  "llm": {
    "unit": {"time": "ns/op", "allocs": "allocs/op"},
    "server.LLMContinuousBatch": {"time": $(bench_field LLMContinuousBatch ns/op), "allocs": $llm_batch_allocs, "note": "one 1ms token-loop slice on an 8-seq continuous batch, steady state"},
    "sched.LLMRightSizing": {"time": $(bench_field LLMRightSizing ns/op), "allocs": $(bench_field LLMRightSizing allocs/op), "note": "uncached per-phase sizing query (fresh planner per iteration)"},
    "fleet": {
      "unit": {"time": "ns/op (one 300ms virtual fleet run)", "tokens": "generated tokens per wall-second", "throughput": "routed sequences per wall-second"},
      "workload": "llm-small, 2 nodes x 2 GPUs, 2000 seq/s, prompt 128, output 64, disaggregated prefill/decode tiers, seed 42",
      "shared":    {"time": $(cluster_field 'LLMFleet/shared' ns/op), "tokens": $(cluster_field 'LLMFleet/shared' tokens/s), "throughput": $(cluster_field 'LLMFleet/shared' requests/s)},
      "per-phase": {"time": $(cluster_field 'LLMFleet/per-phase' ns/op), "tokens": $(cluster_field 'LLMFleet/per-phase' tokens/s), "throughput": $(cluster_field 'LLMFleet/per-phase' requests/s)}
    },
    "llm_off_gate": {
      "throughput": $llm_off_rps,
      "pr9_baseline": $pr9_scaling_eh_rps_16,
      "ratio": $(ratio "$llm_off_rps" "$pr9_scaling_eh_rps_16"),
      "floor": 0.65
    }
  },
  "journeys": {
    "unit": {"time": "ns/op (one 300ms virtual 16-node fleet run, best of $scale_count)", "throughput": "routed requests per wall-second (best of $scale_count)"},
    "workload": "squeezenet batch 8, constant 400 req/s per node, 16 nodes x 2 GPUs, pooled (Parallel 0), seed 7",
    "off":  {"time": $journey_off_ns,  "throughput": $journey_off_rps},
    "1pct": {"time": $journey_1pct_ns, "throughput": $journey_1pct_rps, "overhead_time": $(ratio "$journey_1pct_ns" "$journey_off_ns")},
    "all":  {"time": $journey_all_ns,  "throughput": $journey_all_rps, "overhead_time": $(ratio "$journey_all_ns" "$journey_off_ns")}
  },
  "scaling": {
    "unit": {"time": "ns/op (one 300ms virtual fleet run, best of $scale_count)", "throughput": "routed requests per wall-second (best of $scale_count)"},
    "workload": "squeezenet batch 8, constant 400 req/s per node, 2 GPUs per node, seed 7",
    "nodes=4": {
      "serial": $(scale_entry 4 serial),
      "pooled": $(scale_entry 4 pooled)
    },
    "nodes=16": {
      "serial": $(scale_entry 16 serial),
      "pooled": $(scale_entry 16 pooled)
    },
    "nodes=64": {
      "serial": $(scale_entry 64 serial),
      "pooled": $(scale_entry 64 pooled)
    },
    "pr9_event_horizon_16": {"time": $pr9_scaling_eh_ns_16, "throughput": $pr9_scaling_eh_rps_16},
    "pr7_lockstep_baseline": {
      "nodes=4":  {"time": $pr7_scaling_lockstep_ns_4},
      "nodes=16": {"time": $pr7_scaling_lockstep_ns_16},
      "nodes=64": {"time": $pr7_scaling_lockstep_ns_64}
    },
    "speedup_vs_pr7_lockstep": {
      "nodes=4":  $(speedup $pr7_scaling_lockstep_ns_4 4),
      "nodes=16": $(speedup $pr7_scaling_lockstep_ns_16 16),
      "nodes=64": $(speedup $pr7_scaling_lockstep_ns_64 64)
    }
  },
  "fleet": {
    "unit": {"time": "ns/op (one 300ms virtual fleet run)", "throughput": "routed requests per wall-second"},
    "FleetThroughputSerial":   {"time": $(cluster_field FleetThroughputSerial ns/op),   "throughput": $(cluster_field FleetThroughputSerial requests/s)},
    "FleetThroughputParallel": {"time": $(cluster_field FleetThroughputParallel ns/op), "throughput": $(cluster_field FleetThroughputParallel requests/s)},
    "FleetThroughputGateway":  {"time": $(cluster_field FleetThroughputGateway ns/op),  "throughput": $(cluster_field FleetThroughputGateway requests/s)},
    "routing_decision_ns": {
      "pr7_p2c": $pr7_p2c_ns,
      "round-robin":       $(cluster_field 'FleetRoutingDecision/round-robin' ns/op),
      "least-outstanding": $(cluster_field 'FleetRoutingDecision/least-outstanding' ns/op),
      "p2c":               $(cluster_field 'FleetRoutingDecision/p2c' ns/op),
      "slo-aware":         $(cluster_field 'FleetRoutingDecision/slo-aware' ns/op)
    }
  },
  "guards": {
    "gateway.Admission": {"time": $(gateway_field GatewayAdmission ns/op), "allocs": $admission_allocs, "limit": 0},
    "cluster.RoutingDecision": {"allocs": 0, "limit": 0},
    "cluster.RouteWithJourneysOff": {"allocs": $journeys_off_allocs, "limit": 0},
    "server.LLMContinuousBatch": {"allocs": $llm_batch_allocs, "limit": 0},
    "server.ServeOneBatchKRISP": {"time": $(bench_field ServeOneBatchKRISP ns/op), "allocs": $serve_allocs, "limit": 20, "pr7": {"time": $pr7_serve_ns, "allocs": $pr7_serve_allocs}},
    "cluster.LLMOffThroughput": {"throughput": $llm_off_rps, "pr9_baseline": $pr9_scaling_eh_rps_16, "floor": 0.65}
  },
  "microbenchmarks": {
    "unit": {"time": "ns/op", "allocs": "allocs/op"},
    "alloc.GenerateMask":          {"time": $(bench_field GenerateMask ns/op),          "allocs": $(bench_field GenerateMask allocs/op)},
    "alloc.MaskCacheIdleHit":      {"time": $(bench_field MaskCacheIdleHit ns/op),      "allocs": $(bench_field MaskCacheIdleHit allocs/op)},
    "hsa.Dispatch":                {"time": $(bench_field Dispatch ns/op),              "allocs": $(bench_field Dispatch allocs/op)},
    "hsa.DispatchWithTelemetry":   {"time": $(bench_field DispatchWithTelemetry ns/op), "allocs": $(bench_field DispatchWithTelemetry allocs/op)},
    "gpu.LaunchCompleteCycle":     {"time": $(bench_field LaunchCompleteCycle ns/op),   "allocs": $(bench_field LaunchCompleteCycle allocs/op)},
    "sim.HorizonProbe":            {"time": $(bench_field HorizonProbe ns/op),          "allocs": $(bench_field HorizonProbe allocs/op)},
    "server.ServeOneBatchKRISP":   {"time": $(bench_field ServeOneBatchKRISP ns/op),    "allocs": $serve_allocs}
  }
}
EOF

echo "wrote $out"
cat "$out"
