// The benchmark's three workloads and their metric tables.
//
//   io500-pipeline   io500 campaign at 4 jobs -> .qds -> train/evaluate ->
//                    open-loop serving of held-out rows
//   bigcluster-write one ior-easy-write scenario on 1008x16x8 (128 OSTs)
//                    with 1006 ior-easy-write interference instances
//   ctrl-faults      faulted custom ior-easy-write campaign run as
//                    token:rate=64 on-vs-off mitigation twins at 1 job
//
// An untraced run repeats the workload for the requested seconds and
// reports the end-to-end metrics as medians over iterations; a traced run
// executes it once more through the span-recording campaign driver and
// reports the per-layer metrics.  Both check every output.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "qif/core/datasets.hpp"
#include "qif/core/scenario.hpp"
#include "util.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;        ///< tiny inputs, one iteration (the self-test mode)
  std::string work_dir = ".";  ///< scratch files: .qds images, span JSON
  /// Recorded output hashes, keyed "workload/seed" (full-size runs only).
  std::map<std::string, std::string> references;
};

struct RunResult {
  Numbers metrics;  ///< end-to-end (untraced) or per-layer (traced) values
  Numbers info;     ///< further numbers printed for people, not gated
  Ledger ledger;
};

struct MetricInfo {
  std::string name;
  std::string unit;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
[[nodiscard]] const std::vector<MetricInfo>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricInfo>& per_layer_metrics();

/// Runs one workload as `options` says; throws on an unknown name.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

/// The output hash a workload's checks compare against its reference
/// (io500-pipeline: .qds bytes; bigcluster-write: noisy trace
/// fingerprint; ctrl-faults: the off twin's .qds bytes), from one run.
/// `note` receives the other checked numbers of that run, for the record.
[[nodiscard]] std::string reference_hash(const std::string& workload, std::uint64_t seed,
                                         std::string* note = nullptr);

// -- inputs, exposed for the benchmark's tests ------------------------------

/// io500 dataset options at `seed` (richness 1).
[[nodiscard]] qif::core::DatasetOptions io500_options(std::uint64_t seed);
/// The bigcluster scenario; `smoke` shrinks it to 16x4x2 with 14 instances.
[[nodiscard]] qif::core::ScenarioConfig bigcluster_config(std::uint64_t seed, bool smoke);
/// ctrl-faults dataset options (faults + token:rate=64) at `seed`.
[[nodiscard]] qif::core::DatasetOptions ctrl_options(std::uint64_t seed, bool smoke);
/// Serialized .qds image of a dataset (what the hash checks cover).
[[nodiscard]] std::string qds_bytes(const qif::monitor::Dataset& ds);

}  // namespace perfbench
