// Closed-loop interference mitigation policies (ROADMAP item 1).
//
// A Controller is one client's admission policy: it sits behind the
// pfs::AdmissionGate hook on the client's data-RPC path and makes a
// decision once per epoch on the simulation clock.  Two policies share the
// interface:
//
//  * TokenBucketController — meters admitted bytes through an exact-
//    arithmetic TokenBucket (token_bucket.hpp).  The refill rate drops to
//    `cut` of the healthy rate while the client's OSS groups are flagged
//    as interference windows — by an external predictor (FlagBoard, the
//    OnlinePredictor wiring) or, by default, by the client's own DIAL-style
//    latency signal: an EWMA of observed ns-per-byte per OSS port, flagged
//    above `flag_ns_per_byte` with 2x hysteresis.
//
//  * ProbingController — MongoDB-throughput_probing-style hill climb on
//    the client's outstanding-RPC concurrency.  Each epoch it probes one
//    step up or down from the stable level (direction drawn from the
//    controller's own seeded RNG stream — deterministic exploration),
//    adopts downward probes that keep throughput within `tol` of the best
//    seen and upward probes only on strict improvement, so under a flat
//    (saturated) throughput curve the walk settles at the least
//    concurrency that sustains the optimum.
//
// Determinism: a controller's state is touched only from inside the run's
// own events (acquire/on_chunk_complete run inside the client's events; the
// epoch tick is a simulation event), and its RNG stream is derived from
// stable ids — so mitigated traces are bit-identical at every --jobs count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qif/ctrl/token_bucket.hpp"
#include "qif/pfs/admission.hpp"
#include "qif/sim/rng.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::ctrl {

enum class Policy : std::uint8_t { kOff, kTokenBucket, kProbing };

/// Which clients get a controller.  kNoise gates only background jobs
/// (job != 0) — the facility throttles the aggressors it can slow down,
/// never the monitored application; kAll is DIAL's every-client-tunes-
/// itself mode.
enum class Scope : std::uint8_t { kNoise, kAll };

struct MitigationConfig {
  Policy policy = Policy::kOff;
  Scope scope = Scope::kNoise;
  /// Decision-epoch length (aligned with the monitor window by default).
  sim::SimDuration epoch = sim::kSecond;

  // -- token-bucket policy knobs -------------------------------------------
  std::int64_t rate_bytes_per_s = 256ll << 20;  ///< healthy per-client rate
  std::int64_t burst_bytes = 8ll << 20;         ///< bucket capacity
  double cut = 1.0 / 16.0;      ///< flagged-window rate multiplier, (0, 1]
  /// Self-signal latency threshold.  The testbed's disks stream ~5.5
  /// ns/byte uncontended and >= 12 under heavy sharing, so 9 separates the
  /// two regimes with margin on both sides.
  double flag_ns_per_byte = 9.0;

  // -- probing policy knobs ------------------------------------------------
  int probe_init = 8;
  int probe_min = 1;
  int probe_max = 8;
  int probe_step = 1;
  double probe_tol = 0.10;  ///< accepted throughput slack on downward probes

  [[nodiscard]] bool empty() const { return policy == Policy::kOff; }
};

/// Parses a `--mitigate` spec:
///
///   spec  := 'off' | kind (':' key '=' value (',' key '=' value)*)?
///   kind  := 'token' | 'probe'
///
///   common: epoch=<seconds>, scope=noise|all
///   token:  rate=<MiB/s>, burst=<MiB>, cut=<float in (0,1]>,
///           flag=<ns-per-byte>
///   probe:  init/min/max/step=<int>, tol=<float>
///
/// Example: "token:rate=128,cut=0.125,scope=all".  Throws
/// std::invalid_argument naming the offending token.
[[nodiscard]] MitigationConfig parse_mitigation(const std::string& spec);

/// Canonical spec string (round-trips through parse_mitigation).
[[nodiscard]] std::string to_spec(const MitigationConfig& config);

/// Per-OSS-port interference flags published by an external predictor
/// (the OnlinePredictor bridge).  When attached, it replaces every
/// controller's self-signal.
struct FlagBoard {
  std::vector<std::uint8_t> flags;  ///< one per OSS port, 1 = interference
  [[nodiscard]] bool flagged(int port) const {
    return port >= 0 && static_cast<std::size_t>(port) < flags.size() &&
           flags[static_cast<std::size_t>(port)] != 0;
  }
};

/// One decision epoch's accounting, in the order the epochs closed.
struct EpochRow {
  std::int64_t epoch = 0;              ///< index (0 = first epoch)
  std::int64_t throttle_waits = 0;     ///< acquire() calls that had to wait
  std::int64_t throttled_bytes = 0;    ///< bytes across those waits
  sim::SimDuration throttle_delay = 0; ///< sum of returned waits
  std::int64_t admitted_bytes = 0;
  std::int64_t completed_bytes = 0;
  int admission_level = 0;             ///< concurrency cap at epoch close
  bool flagged = false;                ///< interference window was in effect
};

class Controller : public pfs::AdmissionGate {
 public:
  Controller(const MitigationConfig& config, int n_ports, sim::SimTime now);
  ~Controller() override = default;

  /// Decision-epoch boundary; called on the owning client's engine.
  virtual void on_epoch(sim::SimTime now) = 0;
  [[nodiscard]] virtual const char* policy_name() const = 0;

  void on_chunk_complete(int oss_port, std::int64_t bytes,
                         sim::SimDuration rtt) override;

  /// Attaches the external predictor flags (overrides the self-signal).
  void set_flag_board(const FlagBoard* board) { board_ = board; }

  [[nodiscard]] const std::vector<EpochRow>& epochs() const { return log_; }

 protected:
  /// Self-signal: true when any OSS port this client has touched sits
  /// above the latency threshold (or the external board flags it).
  [[nodiscard]] bool interference_flagged() const;
  /// Closes the accumulating epoch row.
  void finish_epoch(int admission_level, bool flagged);

  MitigationConfig config_;
  EpochRow cur_;              ///< the epoch being accumulated
  std::vector<EpochRow> log_;

 private:
  struct PortSignal {
    double ewma_ns_per_byte = 0.0;
    bool seeded = false;  ///< first sample initializes the EWMA
    bool hot = false;     ///< above threshold (with hysteresis)
  };
  std::vector<PortSignal> ports_;
  const FlagBoard* board_ = nullptr;
};

class TokenBucketController final : public Controller {
 public:
  TokenBucketController(const MitigationConfig& config, int n_ports, sim::SimTime now);

  sim::SimDuration acquire(int oss_port, std::int64_t bytes, sim::SimTime now) override;
  [[nodiscard]] int concurrency_cap() const override;
  void on_epoch(sim::SimTime now) override;
  [[nodiscard]] const char* policy_name() const override { return "token"; }

  [[nodiscard]] TokenBucket& bucket() { return bucket_; }

 private:
  TokenBucket bucket_;
  bool flagged_ = false;
};

class ProbingController final : public Controller {
 public:
  ProbingController(const MitigationConfig& config, int n_ports, sim::SimTime now,
                    std::uint64_t seed);

  sim::SimDuration acquire(int oss_port, std::int64_t bytes, sim::SimTime now) override;
  [[nodiscard]] int concurrency_cap() const override { return level_; }
  void on_epoch(sim::SimTime now) override;
  [[nodiscard]] const char* policy_name() const override { return "probe"; }

  [[nodiscard]] int stable_level() const { return stable_; }

 private:
  [[nodiscard]] int clamp_level(int level) const;

  int level_;       ///< cap in effect (the probe under evaluation)
  int stable_;      ///< last adopted level
  double best_ = 0.0;  ///< decayed best epoch throughput seen
  sim::Rng rng_;       ///< seeded exploration: probe-direction draws
};

/// Factory keyed on config.policy; `seed` feeds the probing RNG stream.
[[nodiscard]] std::unique_ptr<Controller> make_controller(
    const MitigationConfig& config, int n_ports, sim::SimTime now,
    std::uint64_t seed);

}  // namespace qif::ctrl
