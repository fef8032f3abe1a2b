// Small helpers shared by the benchmark: host clock, order statistics,
// byte hashing, resident-memory probe and a minimal JSON writer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Host steady clock in seconds since an arbitrary epoch.
[[nodiscard]] double now_s();
/// Host steady clock in nanoseconds (the clock serve::Request stamps use).
[[nodiscard]] std::int64_t now_ns();
/// Seconds since this process was loaded (static-initialization time).
[[nodiscard]] double since_process_start_s();

/// q-quantile (0..1) of `v` by linear interpolation; 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// FNV-1a 64 over bytes, printed as 16 lowercase hex digits.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Peak resident set of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mib();

/// A fixed reference loop for host speed: binary-heap pushes and pops of
/// pseudo-random keys in a preallocated vector (~1.5 MiB live), the
/// cache-bound kind of work an event heap does.  It runs no qif code, so
/// no change to the program moves it; a stage's time divided by the
/// probe's time next to it keeps the stage's cost and drops most of the
/// host's speed swings.
class HostProbe {
 public:
  HostProbe();
  /// Runs the loop once; returns its host seconds (about 25 ms).
  double run();

 private:
  std::vector<std::uint64_t> heap_;
  std::uint64_t sink_ = 0;
};

/// Ordered name -> number map printed as a flat JSON object.
using Numbers = std::map<std::string, double>;
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(std::string_view s);

/// Result of one output check: what was compared and whether it held.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Accumulates checks plus other attempted/failed units (cases, requests).
struct Ledger {
  std::vector<Check> checks;
  std::uint64_t attempted = 0;  ///< cases and requests (checks counted separately)
  std::uint64_t failed = 0;

  void check(std::string name, bool ok, std::string detail = {});
  [[nodiscard]] std::uint64_t total_attempted() const { return attempted + checks.size(); }
  [[nodiscard]] std::uint64_t total_failed() const;
};

}  // namespace perfbench
