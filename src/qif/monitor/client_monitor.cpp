#include "qif/monitor/client_monitor.hpp"

#include <algorithm>

namespace qif::monitor {

ClientMonitor::ClientMonitor(std::int32_t job, sim::SimDuration window, int n_servers,
                             int mdt_server_index)
    : job_(job), window_(window), n_servers_(n_servers), mdt_server_index_(mdt_server_index) {}

void ClientMonitor::observe(const trace::OpRecord& rec,
                            std::span<const std::int32_t> targets) {
  if (rec.job != job_) return;
  ++ops_observed_;
  // Ops are bucketed by *start* time, matching the labeler, so a window's
  // features and its label describe the same set of requests.
  const std::int64_t w = rec.start / window_;
  if (w != cached_window_ || cached_cells_ == nullptr) {
    auto it = windows_.find(w);
    if (it == windows_.end()) {
      it = windows_.emplace(w, std::vector<ClientWindow>(static_cast<std::size_t>(n_servers_)))
               .first;
    }
    cached_window_ = w;
    cached_cells_ = &it->second;
  }
  auto& cells = *cached_cells_;

  std::vector<int>& servers = scratch_targets_;
  servers.clear();
  servers.reserve(targets.size());
  for (std::int32_t t : targets) {
    const int s = t == trace::kMdtTarget ? mdt_server_index_ : t;
    if (s >= 0 && s < n_servers_) servers.push_back(s);
  }
  if (servers.empty()) return;

  // Bytes are split evenly over the op's target servers (the record does
  // not carry per-extent splits); durations are attributed in full to each
  // target since the op overlapped all of them.
  const std::int64_t bytes_share =
      rec.bytes / static_cast<std::int64_t>(servers.size());
  const double dur_s = sim::to_seconds(rec.duration());
  for (int s : servers) {
    ClientWindow& c = cells[static_cast<std::size_t>(s)];
    switch (rec.type) {
      case pfs::OpType::kRead:
        c.n_read += 1;
        c.bytes_read += bytes_share;
        break;
      case pfs::OpType::kWrite:
        c.n_write += 1;
        c.bytes_write += bytes_share;
        break;
      default:
        c.n_meta += 1;
        break;
    }
    c.io_time_s += dur_s;
    // Fault counters attribute in full to every target, like durations: a
    // timed-out op was stuck on all the servers it straddled.
    c.retries += rec.retries;
    c.timeouts += rec.timeouts;
    c.failed_ops += rec.failed ? 1 : 0;
  }
}

const std::vector<ClientWindow>* ClientMonitor::window_cells(
    std::int64_t window_index) const {
  const auto it = windows_.find(window_index);
  return it == windows_.end() ? nullptr : &it->second;
}

const ClientWindow* ClientMonitor::cell(std::int64_t window_index, int server) const {
  const std::vector<ClientWindow>* cells = window_cells(window_index);
  return cells == nullptr ? nullptr : &(*cells)[static_cast<std::size_t>(server)];
}

std::vector<std::int64_t> ClientMonitor::window_indices() const {
  std::vector<std::int64_t> out;
  out.reserve(windows_.size());
  for (const auto& [w, cells] : windows_) {
    (void)cells;
    out.push_back(w);
  }
  return out;
}

void ClientMonitor::fill_features_from(const ClientWindow& c, sim::SimDuration window,
                                       double* out) {
  const double win_s = sim::to_seconds(window);
  const auto total_bytes = static_cast<double>(c.bytes_total());
  out[0] = static_cast<double>(c.n_read);
  out[1] = static_cast<double>(c.n_write);
  out[2] = static_cast<double>(c.n_meta);
  out[3] = static_cast<double>(c.n_total());
  out[4] = static_cast<double>(c.bytes_read);
  out[5] = static_cast<double>(c.bytes_write);
  out[6] = total_bytes;
  out[7] = c.io_time_s;
  out[8] = c.io_time_s > 0 ? total_bytes / c.io_time_s : 0.0;  // throughput
  out[9] = static_cast<double>(c.n_total()) / win_s;           // IOPS
}

void ClientMonitor::fill_fault_features_from(const ClientWindow& c, double* out) {
  out[0] = static_cast<double>(c.retries);
  out[1] = static_cast<double>(c.timeouts);
  out[2] = static_cast<double>(c.failed_ops);
}

void ClientMonitor::fill_features(std::int64_t window_index, int server, double* out) const {
  const ClientWindow* c = cell(window_index, server);
  const ClientWindow empty;
  fill_features_from(c == nullptr ? empty : *c, window_, out);
}

void ClientMonitor::fill_fault_features(std::int64_t window_index, int server,
                                        double* out) const {
  const ClientWindow* c = cell(window_index, server);
  const ClientWindow empty;
  fill_fault_features_from(c == nullptr ? empty : *c, out);
}

}  // namespace qif::monitor
