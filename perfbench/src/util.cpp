#include "util.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

const double kProcessStart = now_s();

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double since_process_start_s() { return now_s() - kProcessStart; }

namespace {
constexpr int kProbePushes = 3 << 17;
}  // namespace

HostProbe::HostProbe() { heap_.reserve(kProbePushes); }

double HostProbe::run() {
  heap_.clear();
  const double t0 = now_s();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < kProbePushes; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap_.push_back(x);
    std::push_heap(heap_.begin(), heap_.end());
    if ((i & 1) == 1) {
      std::pop_heap(heap_.begin(), heap_.end());
      sink_ += heap_.back();
      heap_.pop_back();
    }
  }
  return now_s() - t0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  // Shortest text that reads back as the same double: every digit measured.
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

void Ledger::check(std::string name, bool ok, std::string detail) {
  std::printf("check %-34s %s%s%s\n", name.c_str(), ok ? "ok" : "FAILED",
              detail.empty() ? "" : "  ", detail.c_str());
  checks.push_back({std::move(name), ok, std::move(detail)});
}

std::uint64_t Ledger::total_failed() const {
  std::uint64_t n = failed;
  for (const Check& c : checks) n += c.ok ? 0 : 1;
  return n;
}

}  // namespace perfbench
