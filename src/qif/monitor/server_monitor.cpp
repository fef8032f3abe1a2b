#include "qif/monitor/server_monitor.hpp"

#include <cassert>

namespace qif::monitor {

ServerMonitor::ServerMonitor(pfs::Cluster& cluster, sim::SimDuration window,
                             sim::SimDuration sample_period)
    : cluster_(cluster),
      window_(window),
      sample_period_(sample_period),
      samples_per_window_(window / sample_period) {
  assert(window % sample_period == 0 && "window must be a multiple of the sample period");
  const auto n = static_cast<std::size_t>(cluster_.n_servers());
  prev_counters_.resize(n);
  last_sample_.resize(n);
  for (int s = 0; s < cluster_.n_servers(); ++s) {
    prev_counters_[static_cast<std::size_t>(s)] = cluster_.server_counters(s);
  }
  sampler_ = std::make_unique<sim::Sampler>(cluster_.sim(), sample_period_,
                                            [this](std::uint64_t t) { on_tick(t); });
}

void ServerMonitor::start() { sampler_->start(); }
void ServerMonitor::stop() { sampler_->stop(); }

void ServerMonitor::on_tick(std::uint64_t tick) {
  // Sample at t = k * period closes the second (k-1)*period .. k*period,
  // which belongs to window (k-1) / samples_per_window.
  const std::int64_t w =
      static_cast<std::int64_t>(tick - 1) / samples_per_window_;
  if (w != cached_window_ || cached_cells_ == nullptr) {
    auto it = windows_.find(w);
    if (it == windows_.end()) {
      it = windows_.emplace(w, std::vector<ServerWindow>(
                                   static_cast<std::size_t>(cluster_.n_servers())))
               .first;
    }
    cached_window_ = w;
    cached_cells_ = &it->second;
  }
  for (int s = 0; s < cluster_.n_servers(); ++s) {
    const auto cur = cluster_.server_counters(s);
    auto& prev = prev_counters_[static_cast<std::size_t>(s)];
    auto& agg = (*cached_cells_)[static_cast<std::size_t>(s)].metrics;
    for (int m = 0; m < MetricSchema::kRawServerMetrics; ++m) {
      double delta = static_cast<double>(cur[static_cast<std::size_t>(m)] -
                                         prev[static_cast<std::size_t>(m)]);
      // Tick-valued metrics are reported in seconds so feature magnitudes
      // stay comparable across the vector.
      if (m >= 7) delta *= 1e-9;
      agg[static_cast<std::size_t>(m)].add(delta);
      last_sample_[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)] = delta;
    }
    prev = cur;
  }
}

const std::vector<ServerWindow>* ServerMonitor::window_cells(
    std::int64_t window_index) const {
  const auto it = windows_.find(window_index);
  return it == windows_.end() ? nullptr : &it->second;
}

const ServerWindow* ServerMonitor::window_data(std::int64_t window_index, int server) const {
  const std::vector<ServerWindow>* cells = window_cells(window_index);
  return cells == nullptr ? nullptr : &(*cells)[static_cast<std::size_t>(server)];
}

std::vector<std::int64_t> ServerMonitor::window_indices() const {
  std::vector<std::int64_t> out;
  out.reserve(windows_.size());
  for (const auto& [w, v] : windows_) {
    (void)v;
    out.push_back(w);
  }
  return out;
}

void ServerMonitor::fill_features(std::int64_t window_index, int server, double* out) const {
  fill_features_from(window_data(window_index, server), out);
}

void ServerMonitor::fill_features_from(const ServerWindow* sw, double* out) {
  for (int m = 0; m < MetricSchema::kRawServerMetrics; ++m) {
    const int base = m * MetricSchema::kAggregatesPerMetric;
    if (sw == nullptr) {
      out[base] = out[base + 1] = out[base + 2] = 0.0;
    } else {
      const auto& st = sw->metrics[static_cast<std::size_t>(m)];
      out[base] = st.sum();
      out[base + 1] = st.mean();
      out[base + 2] = st.stddev();
    }
  }
}

std::array<double, MetricSchema::kRawServerMetrics> ServerMonitor::last_sample(
    int server) const {
  return last_sample_[static_cast<std::size_t>(server)];
}

}  // namespace qif::monitor
