#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "util.hpp"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled) : enabled_(enabled), epoch_s_(now_s()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int SpanRecorder::open(std::string name, std::string layer, std::string id) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.id = std::move(id);
  s.parent = innermost();
  s.start_s = now_s() - epoch_s_;
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanRecorder::close(int index) {
  if (!enabled_) return;
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("span closed out of order: " + spans_.at(index).name);
  }
  spans_[static_cast<std::size_t>(index)].end_s = now_s() - epoch_s_;
  stack_.pop_back();
}

void SpanRecorder::detail(std::string name, std::string layer, std::string id,
                          double start_abs_s, double end_abs_s, int parent) {
  if (!enabled_) return;
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.id = std::move(id);
  s.start_s = start_abs_s - epoch_s_;
  s.end_s = end_abs_s - epoch_s_;
  s.parent = parent;
  s.detail = true;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> SpanRecorder::self_time_by_layer() const {
  // Synchronous children of one span are sequential on the main thread,
  // so their durations never overlap and simply subtract.
  std::vector<double> child_sum(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.detail || s.parent < 0) continue;
    child_sum[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].detail) continue;
    out[spans_[i].layer] += (spans_[i].end_s - spans_[i].start_s) - child_sum[i];
  }
  return out;
}

double SpanRecorder::covered_s() const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (!s.detail && s.parent < 0) sum += s.end_s - s.start_s;
  }
  return sum;
}

double SpanRecorder::total_s(const std::string& name) const {
  double sum = 0.0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (!s.detail && s.name == name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

void SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"i\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"layer\": " << json_string(s.layer) << ", \"id\": " << json_string(s.id)
        << ", \"start_s\": " << json_number(s.start_s)
        << ", \"end_s\": " << json_number(s.end_s) << ", \"parent\": " << s.parent
        << ", \"detail\": " << (s.detail ? "true" : "false") << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench
