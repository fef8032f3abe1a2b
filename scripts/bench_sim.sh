#!/usr/bin/env bash
# Event-engine benchmark: scheduler micro-benchmarks + one campaign scenario.
#
# Builds the default configuration, runs the event-engine, FairLink, and
# campaign benchmarks, and writes BENCH_sim.json:
#   engine_items_per_sec:  schedule/fire, cancel-churn, and timeout rates
#   fairlink_items_per_sec: flows settled per second at 64 / 512 flows
#   scenario_ms:           one end-to-end scenario and one campaign scenario
#   speedup_vs_pre_rebuild: measured rates divided by the pre-rebuild
#                          engine's rates (std::function events + lazy
#                          tombstone cancellation), recorded on the same
#                          machine right before the rebuild landed.
#   host_cores:            `nproc` of the measuring host.
#
# Pass a different build dir as $1; pass --smoke (as $1 or $2) for a fast
# CI-gate run that only checks the benchmarks still execute.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="build"
MIN_TIME="0.5"
SMOKE=0
for arg in "$@"; do
  case "${arg}" in
    --smoke) SMOKE=1; MIN_TIME="0.01" ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done

OUT_JSON="BENCH_sim.json"
RAW_JSON="${BUILD_DIR}/bench_sim_raw.json"

cmake -B "${BUILD_DIR}" -S . > /dev/null
cmake --build "${BUILD_DIR}" -j --target micro_benchmarks > /dev/null

"./${BUILD_DIR}/bench/micro_benchmarks" \
  --benchmark_filter='BM_EventEngine|BM_FairLink|BM_EndToEndScenario|BM_CampaignScenario' \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_out="${RAW_JSON}" \
  --benchmark_out_format=json

if [[ "${SMOKE}" -eq 1 ]]; then
  echo "smoke OK (not overwriting ${OUT_JSON})"
  exit 0
fi

python3 - "${RAW_JSON}" "${OUT_JSON}" "$(nproc)" <<'EOF'
import json, sys

# Pre-rebuild engine rates (std::function heap events, lazy tombstone
# cancellation), measured on this repo's reference machine with
# --benchmark_min_time=0.5 immediately before the allocation-free engine
# landed.  items/s for throughput benches, ms for scenario benches.
PRE_REBUILD = {
    "BM_EventEngine/1000": 15.55e6,
    "BM_EventEngine/100000": 5.40e6,
    "BM_EventEngineCancelChurn/1000": 7.26e6,
    "BM_EventEngineCancelChurn/16384": 0.925e6,
    "BM_EventEngineTimeouts/1000": 4.22e6,
    "BM_EventEngineTimeouts/16384": 0.370e6,
    "BM_FairLink/64": 9.80e6,
    "BM_FairLink/512": 2.38e6,
    "BM_EndToEndScenario": 0.124,
    "BM_CampaignScenario": 0.804,
}

raw = json.load(open(sys.argv[1]))
engine, fairlink, scenario, speedup = {}, {}, {}, {}
for b in raw["benchmarks"]:
    name = b["name"]
    key = name.replace("BM_", "").replace("/", "_")
    if "items_per_second" in b:
        rate = b["items_per_second"]
        bucket = fairlink if name.startswith("BM_FairLink") else engine
        bucket[key] = round(rate / 1e6, 3)
        if name in PRE_REBUILD:
            speedup[key] = round(rate / PRE_REBUILD[name], 2)
    else:
        ms = b["real_time"]
        scenario[key] = round(ms, 3)
        if name in PRE_REBUILD:
            # For latency benches, speedup = old_time / new_time.
            speedup[key] = round(PRE_REBUILD[name] / ms, 2)

out = {
    "engine_mitems_per_sec": engine,
    "fairlink_mitems_per_sec": fairlink,
    "scenario_ms": scenario,
    "speedup_vs_pre_rebuild": speedup,
    "host_cores": int(sys.argv[3]),
}
json.dump(out, open(sys.argv[2], "w"), indent=2)
print(json.dumps(out, indent=2))
EOF

echo "wrote ${OUT_JSON}"
