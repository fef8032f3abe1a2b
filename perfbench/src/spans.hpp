// In-memory span recorder for the traced run.
//
// A span marks one call into a library layer from the benchmark's own
// code: name, layer, start, end, parent span and an id shared by every
// span of one case or request.  Spans are appended to a vector while the
// run executes and written out as JSON when it ends; nothing inside the
// library is instrumented.
//
// Synchronous spans (opened and closed on the main thread) nest into a
// tree and feed the per-layer self-time accounting.  Detail spans (one
// per served request, overlapping each other) are kept for the trace file
// only, because their durations overlap and would double-count wall time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;
  std::string id;       ///< case or request id ("" when not per-unit)
  double start_s = 0.0; ///< seconds since the recorder's epoch
  double end_s = 0.0;
  int parent = -1;      ///< index of the enclosing span, -1 at top level
  bool detail = false;  ///< excluded from self-time accounting
};

class SpanRecorder {
 public:
  /// A disabled recorder makes open/close no-ops (the untraced runs).
  explicit SpanRecorder(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index.
  int open(std::string name, std::string layer, std::string id = {});
  void close(int index);
  /// Records a finished detail span with explicit host-clock times (s).
  void detail(std::string name, std::string layer, std::string id, double start_abs_s,
              double end_abs_s, int parent);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] int innermost() const { return stack_.empty() ? -1 : stack_.back(); }

  /// Self time per layer: each synchronous span's duration minus the part
  /// of it that its synchronous children cover.
  [[nodiscard]] std::map<std::string, double> self_time_by_layer() const;
  /// Sum of top-level synchronous span durations.
  [[nodiscard]] double covered_s() const;
  /// Sum of durations of synchronous spans with this name.
  [[nodiscard]] double total_s(const std::string& name) const;
  /// Durations of synchronous spans with this name, in order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Writes {"spans": [...]} with times relative to the recorder's epoch.
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  double epoch_s_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII helper: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::string layer, std::string id = {})
      : rec_(rec), index_(rec.open(std::move(name), std::move(layer), std::move(id))) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int index() const { return index_; }

 private:
  SpanRecorder& rec_;
  int index_;
};

}  // namespace perfbench
