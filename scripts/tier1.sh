#!/usr/bin/env bash
# Tier-1 gate: warning-free (-Werror) build + test suite, then the
# exec/campaign tests again under ThreadSanitizer to catch data races in
# the qif::exec thread pool, the campaign task graph, and the
# thread-parallel GEMM path, an AddressSanitizer + UndefinedBehaviorSanitizer
# leg over the .qds corruption-fuzz and reader tests (so hostile bytes can
# never turn into a silent out-of-bounds read), over the trace log's row
# blocks and arenas and the monitor reading them, over the campaign tests
# (so a run stopped at its horizon frees every in-flight op) and over the
# PFS RPC path (pooled closures, call slots and teardown) and the .qifm
# model loader, and the pipeline benchmark's own tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== tier-1: standard build (warnings are errors) + ctest ==="
cmake -B build -S . -DQIF_WERROR=ON
cmake --build build -j
ctest --test-dir build --output-on-failure -j

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

echo "=== tier-1: corruption fuzz, campaign leaks and the PFS RPC path under ASan+UBSan ==="
# QIF_SANITIZE=address builds with ASan, LeakSanitizer and UBSan (any UB
# report aborts the test).
# test_qds_fuzz covers the buffered reader, the mmap path (QdsMmapFuzz),
# the .qdm manifest/shard files (QdmFuzz), and the qlz codec (QlzFuzz);
# test_streaming exercises the mmap'ed shard lifecycle end to end.
# test_qwp flips/truncates every byte of a serialized workload program and
# test_replay parses crafted DXT dumps — the two text-IR parsers must turn
# hostile bytes into clean errors, never out-of-bounds reads.
# test_trace and test_monitor drive the trace log's row blocks and its
# target/path arenas through the span views (records(), targets(), path(),
# sorted_for_job copies, log copies and moves, the monitor's observer).
# test_exec and test_campaign_faults stop scenarios at their horizon with
# data ops still in flight; LeakSanitizer checks that each is freed.
# The PFS tests drive the RPC path's pooled continuations: fabric call
# slots (freed on delivery and on every loss-gate drop), the MDS task slab,
# the client's DataOp records and retry stragglers, and cluster teardown
# with closures still parked in slabs while the engine outlives them.
# test_serve_registry (every truncation, bit flip and hostile header of a
# .qifm image) and test_core (TrainingServer load and its rejections) cover
# the one model loader that `qif eval` and `serve publish` feed files to.
cmake -B build-asan -S . -DQIF_SANITIZE=address
cmake --build build-asan -j --target test_qds_fuzz test_export test_streaming \
  test_qwp test_replay test_trace test_monitor test_exec test_campaign_faults \
  test_pfs_network test_pfs_client test_pfs_faults test_pfs_disk \
  test_pfs_writeback test_pfs_mdt test_sim_golden test_serve_registry test_core
./build-asan/tests/test_qds_fuzz
./build-asan/tests/test_export
./build-asan/tests/test_streaming
./build-asan/tests/test_qwp
./build-asan/tests/test_replay
./build-asan/tests/test_trace
./build-asan/tests/test_monitor
./build-asan/tests/test_exec
./build-asan/tests/test_campaign_faults
./build-asan/tests/test_pfs_network
./build-asan/tests/test_pfs_client
./build-asan/tests/test_pfs_faults
./build-asan/tests/test_pfs_disk
./build-asan/tests/test_pfs_writeback
./build-asan/tests/test_pfs_mdt
./build-asan/tests/test_sim_golden
./build-asan/tests/test_serve_registry
./build-asan/tests/test_core

echo "=== tier-1: benchmark smoke ==="
# Engine smoke: the event-engine, FairLink and scenario micro-benchmarks
# must still run.
./scripts/bench_sim.sh --smoke
# Serving smoke: `qif serve verify` replays every batched reply against a
# single-row sync prediction and must report zero mismatches for both
# model architectures (the serving bit-identity contract, end to end).
./scripts/bench_serve.sh --smoke
# Mitigation smoke: the on-vs-off study on a contended campaign must show
# mitigation-on beating off on both mean degradation and victim p99 (the
# mitigation-wins gate, end to end through the CLI).
./scripts/bench_ctrl.sh --smoke

echo "=== tier-1: pipeline benchmark tests ==="
# The benchmark's own suite builds into .bench_build/ from src/ and
# asserts, among others, that its traced campaign driver reproduces
# run_campaign and run_mitigation_study byte for byte — the contract the
# campaign task graph must keep.
python3 perfbench/run.py --test

echo "tier-1 OK"
