#!/usr/bin/env bash
# Tier-1 gate: warning-free (-Werror) build + test suite, then the
# exec/campaign tests again under ThreadSanitizer to catch data races in
# the qif::exec thread pool, the campaign task graph, and the
# thread-parallel GEMM path, the whole ctest suite again under
# AddressSanitizer + UndefinedBehaviorSanitizer, and the pipeline
# benchmark's own tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== tier-1: standard build (warnings are errors) + ctest ==="
cmake -B build -S . -DQIF_WERROR=ON
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "=== tier-1: exec/campaign/scheduler tests under TSan ==="
cmake -B build-tsan -S . -DQIF_SANITIZE=thread
cmake --build build-tsan -j --target test_exec test_core test_ml_gemm test_ml_trainer \
  test_sim_simulation test_sim_links test_export test_data_alloc \
  test_campaign_faults test_pfs_faults test_sim_property test_streaming \
  test_serve_ring test_serve_service \
  test_ctrl_bucket test_ctrl_controller test_campaign_mitigate
./build-tsan/tests/test_exec
./build-tsan/tests/test_core --gtest_filter='Campaign.*'
# Data-plane: parallel campaign shards block-append into one FeatureTable,
# and the .qds reader touches whole columns — both must stay race-free.
./build-tsan/tests/test_export
./build-tsan/tests/test_data_alloc
./build-tsan/tests/test_ml_gemm --gtest_filter='Gemm.Parallel*'
./build-tsan/tests/test_ml_trainer --gtest_filter='Trainer.ResultIsBitIdenticalAcrossJobCounts'
# Chunked trainer: batches stream out of mmap'ed shards while the GEMM
# pool fans out — the shard access path must stay race-free.
./build-tsan/tests/test_streaming --gtest_filter='ChunkedTraining.*'
# The event engine itself is single-threaded, but campaign workers each run
# a private Simulation on pool threads — the slab/heap must stay free of
# cross-engine shared state.
./build-tsan/tests/test_sim_simulation
./build-tsan/tests/test_sim_links
# Fault layer: faulted campaigns shard across pool workers exactly like
# healthy ones, and the property harness hammers the per-worker engines.
./build-tsan/tests/test_campaign_faults
./build-tsan/tests/test_pfs_faults
./build-tsan/tests/test_sim_property
# Serving layer: the MPSC ring (multi-producer ticket CAS + per-cell seq)
# and the batcher/hot-swap path (producers spinning on completion flags
# while the batcher thread swaps models) are the two lock-free surfaces —
# both must stay race-free while the tests assert FIFO order,
# exactly-once consumption, and single-version batches.
./build-tsan/tests/test_serve_ring
./build-tsan/tests/test_serve_service
# Mitigation layer: each campaign worker runs its own Mitigator +
# controllers on a private engine; mitigated (and faulted+mitigated)
# campaigns must shard across the pool without sharing controller state,
# while the tests assert byte-identity across --jobs counts.
./build-tsan/tests/test_ctrl_bucket
./build-tsan/tests/test_ctrl_controller
./build-tsan/tests/test_campaign_mitigate

echo "=== tier-1: the whole ctest suite under ASan+UBSan ==="
# QIF_SANITIZE=address builds with ASan, LeakSanitizer and UBSan (any UB
# report aborts the test).  Every ctest runs, so every parsing surface
# (the .qds/.qdm/qlz, .qwp, DXT and .qifm corruption fuzzers), every
# scenario stopped at its horizon with ops in flight, the PFS RPC path's
# pooled continuations, the trace log's row blocks and arenas, the serving
# layer and the CLI round trips are checked for out-of-bounds reads, leaks
# and UB.  The allocation counters (test_*_alloc) run too: their counting
# operator new forwards to malloc, which ASan still instruments.
cmake -B build-asan -S . -DQIF_SANITIZE=address
cmake --build build-asan -j
ctest --test-dir build-asan --output-on-failure -j "$(nproc)"

echo "=== tier-1: pipeline benchmark tests ==="
# The benchmark's own suite builds into .bench_build/ from src/ and
# asserts, among others, that its traced campaign driver reproduces
# run_campaign and run_mitigation_study byte for byte — the contract the
# campaign task graph must keep.
python3 perfbench/run.py --test

echo "tier-1 OK"
