// Golden-trace regression tests for the discrete-event engine.
//
// The engine rebuild (InlineTask + pooled heap + FairLink churn reduction)
// must be *behaviour-preserving*: every simulation has to stay
// event-for-event identical, because labelled datasets are produced by
// matching op records between baseline and interference runs.  These tests
// pin a small cluster scenario's complete OpRecord stream — order and every
// field — to a hash captured from the pre-rebuild engine.  If any engine
// change reorders same-tick events or perturbs a single timestamp, the
// hash moves and this test fails.
#include <gtest/gtest.h>

#include <cstdint>

#include "qif/core/scenario.hpp"

namespace qif::core {
namespace {

// FNV-1a over the full record stream in completion (log) order.
std::uint64_t trace_hash(const trace::TraceLog& log) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& r : log.records()) {
    mix(r.job);
    mix(r.rank);
    mix(r.op_index);
    mix(static_cast<std::int64_t>(r.type));
    mix(r.file);
    mix(r.offset);
    mix(r.bytes);
    mix(r.start);
    mix(r.end);
    for (const auto t : log.targets(r)) mix(t);
  }
  return h;
}

ScenarioConfig golden_config(const std::string& target, const std::string& background) {
  ScenarioConfig cfg;
  cfg.cluster = testbed_cluster_config(31);
  cfg.target.workload = target;
  cfg.target.nodes = {0, 1};
  cfg.target.procs_per_node = 2;
  cfg.target.seed = 5;
  cfg.target.scale = 0.25;
  cfg.horizon = 300 * sim::kSecond;
  if (!background.empty()) {
    InterferenceSpec bg;
    bg.workload = background;
    bg.nodes = {2, 3};
    bg.instances = 2;
    bg.scale = 0.25;
    bg.seed = 99;
    cfg.interference = bg;
  }
  return cfg;
}

struct GoldenCase {
  const char* target;
  const char* background;  // empty = baseline run
  std::uint64_t expected_hash;
  std::uint64_t expected_events;
};

// Hashes captured from the pre-rebuild engine (std::priority_queue +
// std::function + tombstone cancellation) at seed commit 7478e39.  They
// cover the data path (FairLink + disk + writeback), the metadata path
// (MDT queue + commit batching), and interference (contended FairLinks,
// heavy cancel/reschedule churn).
class GoldenTraceTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTraceTest, OpRecordStreamIsByteIdenticalToPreRebuildEngine) {
  const GoldenCase& c = GetParam();
  const ScenarioResult res = run_scenario(golden_config(c.target, c.background));
  ASSERT_TRUE(res.target_finished);
  EXPECT_EQ(res.events_executed, c.expected_events)
      << c.target << " vs " << c.background;
  EXPECT_EQ(trace_hash(res.trace), c.expected_hash)
      << c.target << " vs " << c.background << ": trace diverged; hash=0x"
      << std::hex << trace_hash(res.trace) << " events=" << std::dec
      << res.events_executed;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, GoldenTraceTest,
    ::testing::Values(
        GoldenCase{"ior-easy-write", "", 0x15fbd55224be2ea4ull, 1325ull},
        GoldenCase{"ior-easy-write", "ior-easy-read", 0x0fbd8de0a534e1caull, 4338ull},
        GoldenCase{"ior-hard-read", "ior-easy-write", 0xfbc1910e718a9ff3ull, 11926ull},
        GoldenCase{"mdt-hard-write", "mdt-easy-write", 0x9baf5909afb0dfe2ull, 20291ull}),
    [](const auto& test_info) {
      std::string n = test_info.param.target;
      if (test_info.param.background[0] != '\0') {
        n += std::string("_vs_") + test_info.param.background;
      }
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

}  // namespace
}  // namespace qif::core
