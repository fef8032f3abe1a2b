// Cluster topology: the simulated counterpart of the paper's testbed.
//
// Default shape matches the evaluation platform: 11 machines — 7 compute
// nodes, 3 OSS hosting 2 OSTs each, and 1 combined MGS/MDS with one MDT —
// on 1 GB/s links with 7200 rpm SATA disks.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "qif/pfs/client.hpp"
#include "qif/pfs/mdt.hpp"
#include "qif/pfs/network.hpp"
#include "qif/pfs/ost.hpp"
#include "qif/sim/simulation.hpp"
#include "qif/trace/op_record.hpp"

namespace qif::pfs {

class AdmissionGate;

struct ClusterConfig {
  int n_client_nodes = 7;
  int n_oss = 3;
  int osts_per_oss = 2;
  std::int64_t stripe_size = 1 << 20;
  DiskParams ost_disk;
  WritebackParams writeback;
  ReadCacheParams read_cache;  ///< opt-in server page-cache model (0 = off)
  MdtParams mdt;
  DiskParams mdt_disk;   ///< MDT journal/inode device (same hardware class)
  NetworkParams network;
  ClientParams client;
  std::uint64_t seed = 42;
};

class Cluster {
 public:
  Cluster(sim::Simulation& sim, const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }

  [[nodiscard]] int n_osts() const { return static_cast<int>(osts_.size()); }
  /// Monitored servers: all OSTs followed by the MDT.
  [[nodiscard]] int n_servers() const { return n_osts() + 1; }
  /// Index of the MDT in per-server vectors (== n_osts()).
  [[nodiscard]] int mdt_server_index() const { return n_osts(); }
  /// Resolves an OpRecord target id (OST id or trace::kMdtTarget) to a
  /// dense monitored-server index.
  [[nodiscard]] int server_index(std::int32_t target) const {
    return target == trace::kMdtTarget ? mdt_server_index() : target;
  }

  [[nodiscard]] Ost& ost(OstId id) { return *osts_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const Ost& ost(OstId id) const { return *osts_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] MdtServer& mdt() { return *mdt_; }
  [[nodiscard]] const MdtServer& mdt() const { return *mdt_; }
  [[nodiscard]] NetworkFabric& net() { return *net_; }

  /// Network port hosting the given OST (OSTs share their OSS's port).
  [[nodiscard]] int oss_port(OstId ost) const { return ost / config_.osts_per_oss; }
  [[nodiscard]] int mds_port() const { return config_.n_oss; }

  /// Number of uniform raw counters exposed per monitored server.
  static constexpr int kNumRawCounters = 9;

  /// Uniform cumulative counters for monitored server `s` (OSTs then MDT),
  /// in the fixed order: completed reads, completed writes, sectors read,
  /// sectors written, read merges, write merges, queued arrivals, busy
  /// ticks (ns), weighted queue ticks (ns).  For the MDT, completions
  /// count metadata ops (non-modifying / modifying) and queue ticks fold
  /// in the MDS service-queue wait — the same "pressure" semantics at both
  /// server kinds, which is what lets one shared network kernel interpret
  /// any server's vector.
  [[nodiscard]] std::array<std::int64_t, kNumRawCounters> server_counters(int server) const;

  /// The run's trace log; every client op record lands here.
  [[nodiscard]] trace::TraceLog& trace_log() { return trace_log_; }
  [[nodiscard]] const trace::TraceLog& trace_log() const { return trace_log_; }

  /// Creates a client for (node, rank) tagged with `job`.  Clients are owned
  /// by the cluster and live for the whole run.
  PfsClient& make_client(NodeId node, Rank rank, std::int32_t job);

  /// Per-client admission-gate factory (the mitigation layer's hook).  Runs
  /// once inside make_client for each new client; may return nullptr to
  /// leave that client ungated.  The returned gate must outlive the client
  /// (the ctrl::Mitigator owns its controllers for the whole run).  Unset —
  /// the default — means no client is gated and no admission code runs.
  using GateFactory = std::function<AdmissionGate*(PfsClient&)>;
  void set_gate_factory(GateFactory factory) { gate_factory_ = std::move(factory); }

 private:
  sim::Simulation& sim_;
  ClusterConfig config_;
  std::vector<std::unique_ptr<Ost>> osts_;
  std::unique_ptr<MdtServer> mdt_;
  std::unique_ptr<NetworkFabric> net_;
  std::vector<std::unique_ptr<PfsClient>> clients_;
  GateFactory gate_factory_;
  trace::TraceLog trace_log_;
};

}  // namespace qif::pfs
