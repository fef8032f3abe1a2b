#include "qif/pfs/cluster.hpp"

#include <utility>

#include "qif/pfs/admission.hpp"

namespace qif::pfs {

Cluster::Cluster(sim::Simulation& sim, const ClusterConfig& config)
    : sim_(sim), config_(config) {
  const int n_osts = config_.n_oss * config_.osts_per_oss;
  osts_.reserve(static_cast<std::size_t>(n_osts));
  for (int i = 0; i < n_osts; ++i) {
    osts_.push_back(std::make_unique<Ost>(sim_, static_cast<OstId>(i), config_.ost_disk,
                                          config_.writeback, config_.seed,
                                          config_.read_cache));
  }
  mdt_ = std::make_unique<MdtServer>(sim_, config_.mdt, config_.mdt_disk, config_.seed,
                                     n_osts, config_.stripe_size);
  net_ = std::make_unique<NetworkFabric>(sim_, config_.network, config_.n_client_nodes,
                                         config_.n_oss + 1);
}

std::array<std::int64_t, Cluster::kNumRawCounters> Cluster::server_counters(int server) const {
  std::array<std::int64_t, kNumRawCounters> out{};
  if (server < n_osts()) {
    const DiskCounters c = ost(static_cast<OstId>(server)).disk().counters();
    out = {c.reads_completed, c.writes_completed, c.sectors_read, c.sectors_written,
           c.read_merges,     c.write_merges,     c.queued_requests,
           c.io_ticks,        c.weighted_ticks};
  } else {
    const DiskCounters d = mdt_->disk().counters();
    const MdtCounters m = mdt_->counters();
    out = {m.ops_completed - m.modifying_ops,
           m.modifying_ops,
           d.sectors_read,
           d.sectors_written,
           d.read_merges,
           d.write_merges,
           m.queued_requests + d.queued_requests,
           d.io_ticks,
           d.weighted_ticks + m.queue_wait_total};
  }
  return out;
}

PfsClient& Cluster::make_client(NodeId node, Rank rank, std::int32_t job) {
  clients_.push_back(std::make_unique<PfsClient>(*this, node, rank, job));
  PfsClient& client = *clients_.back();
  if (gate_factory_) {
    if (AdmissionGate* gate = gate_factory_(client)) client.set_gate(gate);
  }
  return client;
}

}  // namespace qif::pfs
