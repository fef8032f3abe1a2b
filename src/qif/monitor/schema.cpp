#include "qif/monitor/schema.hpp"

#include "qif/sim/hash.hpp"

namespace qif::monitor {

const char* group_name(FeatureGroup g) {
  switch (g) {
    case FeatureGroup::kClient: return "client";
    case FeatureGroup::kIoSpeed: return "io_speed";
    case FeatureGroup::kDevice: return "device";
    case FeatureGroup::kQueue: return "queue";
  }
  return "?";
}

const std::vector<std::string>& MetricSchema::raw_server_metric_names() {
  static const std::vector<std::string> kNames = {
      "completed_reads",  "completed_writes", "sectors_read",
      "sectors_written",  "read_merges",      "write_merges",
      "queued_requests",  "busy_ticks",       "weighted_queue_ticks",
  };
  return kNames;
}

MetricSchema::MetricSchema(bool with_fault_features)
    : with_fault_features_(with_fault_features) {
  features_.reserve(with_fault_features ? kPerServerDimFaults : kPerServerDim);
  // Client-side block (paper §III-A): request counts by class, byte sums,
  // actual I/O time plus derived throughput and IOPS.
  const char* client_names[kClientFeatures] = {
      "cli_n_read",     "cli_n_write",     "cli_n_meta",   "cli_n_total",
      "cli_bytes_read", "cli_bytes_write", "cli_bytes_total",
      "cli_io_time_s",  "cli_throughput_bps", "cli_iops",
  };
  for (const char* n : client_names) features_.push_back({n, FeatureGroup::kClient});

  // Fault-path block: present only on fault-injected runs (see header).
  if (with_fault_features) {
    features_.push_back({"cli_retries", FeatureGroup::kClient});
    features_.push_back({"cli_timeouts", FeatureGroup::kClient});
    features_.push_back({"cli_failed_ops", FeatureGroup::kClient});
  }

  // Server-side block: window sum/mean/std of each per-second raw counter.
  static const FeatureGroup kRawGroups[kRawServerMetrics] = {
      FeatureGroup::kIoSpeed, FeatureGroup::kIoSpeed,  // completions
      FeatureGroup::kDevice,  FeatureGroup::kDevice,   // sectors
      FeatureGroup::kQueue,   FeatureGroup::kQueue,    // merges
      FeatureGroup::kQueue,   FeatureGroup::kQueue,    // arrivals, busy
      FeatureGroup::kQueue,                            // weighted queue time
  };
  static const char* kAggNames[kAggregatesPerMetric] = {"sum", "mean", "std"};
  const auto& raw = raw_server_metric_names();
  for (int m = 0; m < kRawServerMetrics; ++m) {
    for (int a = 0; a < kAggregatesPerMetric; ++a) {
      features_.push_back(
          {"srv_" + raw[static_cast<std::size_t>(m)] + "_" + kAggNames[a], kRawGroups[m]});
    }
  }
}

std::uint64_t MetricSchema::layout_hash() const {
  std::uint64_t h = sim::kFnvOffsetBasis;
  for (const FeatureInfo& f : features_) {
    h = sim::fnv1a(f.name, h);
    const char sep_group[2] = {'\0', static_cast<char>(f.group)};
    h = sim::fnv1a(sep_group, sizeof sep_group, h);
  }
  return h;
}

std::vector<int> MetricSchema::group_indices(FeatureGroup g) const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(features_.size()); ++i) {
    if (features_[static_cast<std::size_t>(i)].group == g) out.push_back(i);
  }
  return out;
}

}  // namespace qif::monitor
