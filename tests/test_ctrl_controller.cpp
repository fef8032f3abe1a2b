// Tests for the mitigation controllers (qif::ctrl) and their scenario
// wiring: spec parsing round-trips, the token policy's flag/hysteresis
// state machine, the probing walk's determinism contract, and the
// scenario-level guarantees — mitigated runs are deterministic and an
// out-of-scope (quiet) run is untouched down to the fingerprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <stdexcept>
#include <string>
#include <vector>

#include "qif/core/scenario.hpp"
#include "qif/ctrl/controller.hpp"
#include "qif/ctrl/mitigator.hpp"
#include "qif/trace/op_record.hpp"

namespace qif::ctrl {
namespace {

// ---------------------------------------------------------------------------
// Spec parsing.
// ---------------------------------------------------------------------------

TEST(MitigationSpec, OffAndEmptyParseToEmptyConfig) {
  EXPECT_TRUE(parse_mitigation("").empty());
  EXPECT_TRUE(parse_mitigation("off").empty());
  EXPECT_EQ(to_spec(MitigationConfig{}), "off");
}

TEST(MitigationSpec, DefaultsRoundTripThroughCanonicalStrings) {
  MitigationConfig token;
  token.policy = Policy::kTokenBucket;
  EXPECT_EQ(to_spec(token), "token:rate=256,burst=8,cut=0.0625,flag=9,epoch=1,scope=noise");
  MitigationConfig probe;
  probe.policy = Policy::kProbing;
  EXPECT_EQ(to_spec(probe), "probe:init=8,min=1,max=8,step=1,tol=0.1,epoch=1,scope=noise");
  for (const char* spec : {"token", "probe",
                           "token:rate=128,burst=4,cut=0.125,flag=12.5,epoch=0.5,scope=all",
                           "probe:init=4,min=2,max=6,step=2,tol=0.2,epoch=2,scope=all"}) {
    const MitigationConfig cfg = parse_mitigation(spec);
    EXPECT_EQ(to_spec(parse_mitigation(to_spec(cfg))), to_spec(cfg)) << spec;
  }
}

TEST(MitigationSpec, ParseReadsEveryKnob) {
  const MitigationConfig t =
      parse_mitigation("token:rate=128,burst=4,cut=0.125,flag=12.5,epoch=0.5,scope=all");
  EXPECT_EQ(t.policy, Policy::kTokenBucket);
  EXPECT_EQ(t.scope, Scope::kAll);
  EXPECT_EQ(t.rate_bytes_per_s, 128ll << 20);
  EXPECT_EQ(t.burst_bytes, 4ll << 20);
  EXPECT_DOUBLE_EQ(t.cut, 0.125);
  EXPECT_DOUBLE_EQ(t.flag_ns_per_byte, 12.5);
  EXPECT_EQ(t.epoch, sim::kSecond / 2);

  const MitigationConfig p = parse_mitigation("probe:init=4,min=2,max=6,step=2,tol=0.2");
  EXPECT_EQ(p.policy, Policy::kProbing);
  EXPECT_EQ(p.probe_init, 4);
  EXPECT_EQ(p.probe_min, 2);
  EXPECT_EQ(p.probe_max, 6);
  EXPECT_EQ(p.probe_step, 2);
  EXPECT_DOUBLE_EQ(p.probe_tol, 0.2);
}

TEST(MitigationSpec, BadSpecsThrowWithTheOffendingToken) {
  const auto expect_bad = [](const std::string& spec) {
    try {
      (void)parse_mitigation(spec);
      FAIL() << "accepted bad spec '" << spec << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad --mitigate spec"), std::string::npos)
          << spec;
    }
  };
  expect_bad("dial");                 // unknown policy
  expect_bad("token:rate=0");         // rate must be positive
  expect_bad("token:rate=fast");      // not a number
  expect_bad("token:cut=2");          // cut in (0, 1]
  expect_bad("token:flag=-1");
  expect_bad("token:junk=1");         // unknown key
  expect_bad("token:rate");           // missing '='
  expect_bad("token:epoch=0");
  expect_bad("token:scope=some");
  expect_bad("probe:min=0");          // need 1 <= min
  expect_bad("probe:min=5,max=3");    // min <= max
  expect_bad("probe:init=9");         // init within [min, max=8]
  expect_bad("probe:tol=1");          // tol in [0, 1)
  expect_bad("probe:step=0");
}

// ---------------------------------------------------------------------------
// Token policy: the DIAL-style flag state machine.
// ---------------------------------------------------------------------------

MitigationConfig token_config() {
  MitigationConfig cfg;
  cfg.policy = Policy::kTokenBucket;
  cfg.flag_ns_per_byte = 10.0;
  return cfg;
}

/// Feeds `n` chunk completions observing `ns_per_byte` on `port`.
void feed(Controller& c, int port, double ns_per_byte, int n) {
  const std::int64_t bytes = 1 << 20;
  const auto rtt = static_cast<sim::SimDuration>(ns_per_byte * static_cast<double>(bytes));
  for (int i = 0; i < n; ++i) c.on_chunk_complete(port, bytes, rtt);
}

TEST(TokenBucketController, FlagCutsRateAndHysteresisHoldsIt) {
  const MitigationConfig cfg = token_config();
  TokenBucketController c(cfg, /*n_ports=*/3, /*now=*/0);
  const std::int64_t healthy_rate = cfg.rate_bytes_per_s;
  const auto cut_rate =
      static_cast<std::int64_t>(static_cast<double>(healthy_rate) * cfg.cut);

  // Healthy latencies: unflagged, full rate.
  feed(c, 0, 5.0, 8);
  c.on_epoch(sim::kSecond);
  EXPECT_FALSE(c.epochs().back().flagged);
  EXPECT_EQ(c.bucket().rate(), healthy_rate);

  // Contended latencies push the EWMA over the threshold: flagged, rate cut.
  feed(c, 0, 20.0, 8);
  c.on_epoch(2 * sim::kSecond);
  EXPECT_TRUE(c.epochs().back().flagged);
  EXPECT_EQ(c.bucket().rate(), cut_rate);

  // Hysteresis: easing below the threshold but above half of it stays hot.
  feed(c, 0, 7.0, 16);
  c.on_epoch(3 * sim::kSecond);
  EXPECT_TRUE(c.epochs().back().flagged);
  EXPECT_EQ(c.bucket().rate(), cut_rate);

  // Cooling below threshold/2 unflags and restores the healthy rate.
  feed(c, 0, 1.0, 16);
  c.on_epoch(4 * sim::kSecond);
  EXPECT_FALSE(c.epochs().back().flagged);
  EXPECT_EQ(c.bucket().rate(), healthy_rate);
}

TEST(TokenBucketController, AnyHotPortFlagsTheClient) {
  TokenBucketController c(token_config(), 3, 0);
  feed(c, 0, 4.0, 8);   // port 0 healthy
  feed(c, 2, 30.0, 8);  // port 2 contended
  c.on_epoch(sim::kSecond);
  EXPECT_TRUE(c.epochs().back().flagged);
}

TEST(TokenBucketController, ExternalFlagBoardOverridesSelfSignal) {
  const MitigationConfig cfg = token_config();
  TokenBucketController c(cfg, 3, 0);
  FlagBoard board;
  board.flags = {0, 1, 0};
  c.set_flag_board(&board);

  // No samples at all — the board alone drives the decision.
  c.on_epoch(sim::kSecond);
  EXPECT_TRUE(c.epochs().back().flagged);
  EXPECT_LT(c.bucket().rate(), cfg.rate_bytes_per_s);

  board.flags = {0, 0, 0};
  // Even with hot self-samples the (clear) board wins.
  feed(c, 0, 50.0, 8);
  c.on_epoch(2 * sim::kSecond);
  EXPECT_FALSE(c.epochs().back().flagged);
  EXPECT_EQ(c.bucket().rate(), cfg.rate_bytes_per_s);
}

TEST(TokenBucketController, ThrottleAccountingLandsInTheEpochRow) {
  MitigationConfig cfg = token_config();
  cfg.rate_bytes_per_s = 1 << 20;
  cfg.burst_bytes = 1 << 20;
  TokenBucketController c(cfg, 1, 0);
  EXPECT_EQ(c.concurrency_cap(), INT_MAX);  // rate-metered, never count-capped

  // The initial burst admits immediately; the next chunk must wait.
  EXPECT_EQ(c.acquire(0, 1 << 20, 0), 0);
  const sim::SimDuration wait = c.acquire(0, 1 << 20, 0);
  EXPECT_EQ(wait, sim::kSecond);  // full deficit at 1 MiB/s
  c.on_epoch(sim::kSecond);
  const EpochRow& row = c.epochs().back();
  EXPECT_EQ(row.admitted_bytes, 1 << 20);
  EXPECT_EQ(row.throttle_waits, 1);
  EXPECT_EQ(row.throttled_bytes, 1 << 20);
  EXPECT_EQ(row.throttle_delay, sim::kSecond);
}

// ---------------------------------------------------------------------------
// Probing policy: deterministic exploration.
// ---------------------------------------------------------------------------

MitigationConfig probe_config() {
  MitigationConfig cfg;
  cfg.policy = Policy::kProbing;
  return cfg;
}

/// Runs `epochs` observed epochs against a synthetic throughput curve
/// (bytes completed as a function of the level in effect) and returns the
/// level sequence the walk produced.
std::vector<int> walk(std::uint64_t seed, int epochs,
                      const std::vector<std::int64_t>& bytes_at_level) {
  ProbingController c(probe_config(), 1, 0, seed);
  std::vector<int> levels;
  for (int e = 0; e < epochs; ++e) {
    const int level = c.concurrency_cap();
    const std::int64_t bytes = bytes_at_level[static_cast<std::size_t>(level)];
    c.on_chunk_complete(0, bytes, sim::kMillisecond);
    c.on_epoch((e + 1) * sim::kSecond);
    levels.push_back(c.concurrency_cap());
  }
  return levels;
}

TEST(ProbingController, LevelStaysWithinBoundsAndNeverDelays) {
  ProbingController c(probe_config(), 1, 0, 7);
  EXPECT_EQ(c.acquire(0, 1 << 20, 0), 0);  // probing caps, never queues
  std::vector<std::int64_t> curve(9, 4 << 20);
  for (int e = 0; e < 200; ++e) {
    const int level = c.concurrency_cap();
    ASSERT_GE(level, 1);
    ASSERT_LE(level, 8);
    c.on_chunk_complete(0, curve[static_cast<std::size_t>(level)], sim::kMillisecond);
    c.on_epoch((e + 1) * sim::kSecond);
  }
  EXPECT_GE(c.stable_level(), 1);
  EXPECT_LE(c.stable_level(), 8);
}

TEST(ProbingController, WalkIsDeterministicPerSeed) {
  // Saturating curve: levels past 3 buy nothing.
  std::vector<std::int64_t> curve;
  for (int level = 0; level <= 8; ++level) {
    curve.push_back(static_cast<std::int64_t>(std::min(level, 3)) * (2 << 20));
  }
  const std::vector<int> a = walk(11, 64, curve);
  EXPECT_EQ(a, walk(11, 64, curve));   // same seed: identical exploration
  EXPECT_NE(a, walk(12, 64, curve));   // the direction stream is seed-keyed
}

TEST(ProbingController, IdleEpochsFreezeTheWalkAndTheRngStream) {
  // Interleaving idle (no-traffic) epochs must not advance the exploration
  // RNG or move the level: the observed-epoch level sequence is identical
  // with and without them.  This is what keeps think-time phases from
  // desynchronizing the walk between otherwise identical runs.
  std::vector<std::int64_t> curve;
  for (int level = 0; level <= 8; ++level) {
    curve.push_back(static_cast<std::int64_t>(std::min(level, 3)) * (2 << 20));
  }
  ProbingController busy(probe_config(), 1, 0, 21);
  ProbingController lazy(probe_config(), 1, 0, 21);
  std::vector<int> busy_levels;
  std::vector<int> lazy_levels;
  sim::SimTime t = 0;
  for (int e = 0; e < 48; ++e) {
    const std::int64_t bytes = curve[static_cast<std::size_t>(busy.concurrency_cap())];
    busy.on_chunk_complete(0, bytes, sim::kMillisecond);
    busy.on_epoch(t += sim::kSecond);
    busy_levels.push_back(busy.concurrency_cap());

    const int before = lazy.concurrency_cap();
    lazy.on_epoch(t);  // idle epoch: no evidence, no move, no draw
    EXPECT_EQ(lazy.concurrency_cap(), before);
    lazy.on_chunk_complete(0, curve[static_cast<std::size_t>(lazy.concurrency_cap())],
                           sim::kMillisecond);
    lazy.on_epoch(t);
    lazy_levels.push_back(lazy.concurrency_cap());
  }
  EXPECT_EQ(busy_levels, lazy_levels);
  EXPECT_EQ(busy.epochs().size() * 2, lazy.epochs().size());
}

// ---------------------------------------------------------------------------
// Scenario wiring: the Mitigator end to end.
// ---------------------------------------------------------------------------

core::ScenarioConfig contended_scenario() {
  core::ScenarioConfig cfg;
  cfg.cluster = core::testbed_cluster_config(17);
  cfg.target.workload = "ior-easy-write";
  cfg.target.nodes = {0, 1};
  cfg.target.procs_per_node = 2;
  cfg.target.seed = 17;
  cfg.monitors = false;
  cfg.horizon = 120 * sim::kSecond;
  core::InterferenceSpec noise;
  noise.workload = "ior-easy-read";
  noise.nodes = {2, 3, 4, 5, 6};
  noise.instances = 15;
  noise.seed = 77;
  cfg.interference = noise;
  return cfg;
}

TEST(Mitigator, RejectsAnEmptyConfig) {
  sim::Simulation s;
  pfs::ClusterConfig cc;
  pfs::Cluster cluster(s, cc);
  EXPECT_THROW(Mitigator(cluster, MitigationConfig{}), std::invalid_argument);
}

TEST(MitigatedScenario, DeterministicAndDistinctFromOff) {
  const core::ScenarioConfig off_cfg = contended_scenario();
  core::ScenarioConfig on_cfg = contended_scenario();
  on_cfg.mitigation = parse_mitigation("token");

  const core::ScenarioResult off = core::run_scenario(off_cfg);
  const core::ScenarioResult on1 = core::run_scenario(on_cfg);
  const core::ScenarioResult on2 = core::run_scenario(on_cfg);

  const std::uint64_t off_fp = trace::trace_fingerprint(off.trace);
  const std::uint64_t on_fp = trace::trace_fingerprint(on1.trace);
  EXPECT_EQ(on_fp, trace::trace_fingerprint(on2.trace));
  EXPECT_NE(on_fp, off_fp) << "token policy throttled nothing in a contended run";

  ASSERT_TRUE(on1.ctrl.active());
  EXPECT_EQ(on1.ctrl.policy, to_spec(on_cfg.mitigation));
  EXPECT_GT(on1.ctrl.controllers, 0);
  EXPECT_GT(on1.ctrl.throttle_waits, 0);
  EXPECT_GT(on1.ctrl.throttle_delay_s, 0.0);
  EXPECT_GT(on1.ctrl.victim_p99_ms, 0.0);
  EXPECT_FALSE(on1.ctrl.windows.empty());
  // The off run reports an inactive default.
  EXPECT_FALSE(off.ctrl.active());
}

TEST(MitigatedScenario, ThrottlingAggressorsShortensTheVictimPhase) {
  // The headline effect the paper's mitigation chapter is after: cutting
  // the aggressors' admission rate during flagged windows gives the
  // monitored job its bandwidth back.
  const core::ScenarioConfig off_cfg = contended_scenario();
  core::ScenarioConfig on_cfg = contended_scenario();
  // A lower healthy rate keeps the aggressors metered between flagged
  // windows too — the strongest of the swept settings for this scenario.
  on_cfg.mitigation = parse_mitigation("token:rate=64");
  const core::ScenarioResult off = core::run_scenario(off_cfg);
  const core::ScenarioResult on = core::run_scenario(on_cfg);
  ASSERT_TRUE(off.target_finished);
  ASSERT_TRUE(on.target_finished);
  EXPECT_LT(on.target_body_duration(), off.target_body_duration());
}

TEST(MitigatedScenario, QuietRunUnderNoiseScopeIsUntouched) {
  // Scope kNoise gates only background jobs.  A run with no interference
  // has no gated clients: zero controllers, zero extra events, and a
  // fingerprint equal to the unmitigated run's.
  core::ScenarioConfig cfg = contended_scenario();
  cfg.interference.reset();
  const std::uint64_t off_fp =
      trace::trace_fingerprint(core::run_scenario(cfg).trace);
  cfg.mitigation = parse_mitigation("token");
  const core::ScenarioResult on = core::run_scenario(cfg);
  EXPECT_EQ(trace::trace_fingerprint(on.trace), off_fp);
  EXPECT_EQ(on.ctrl.controllers, 0);
  EXPECT_FALSE(on.ctrl.active());
}

}  // namespace
}  // namespace qif::ctrl
