// Cluster interconnect.
//
// Topology mirrors the paper's testbed: every compute node and every
// server owns a network port.  A node's egress is a FIFO Pipe (requests
// from ranks on one host serialize onto one NIC); each server's ingress
// and egress are FairLinks (concurrent flows from many hosts converge to
// fair shares, the TCP steady state).  An RPC is: request payload over
// client egress -> server ingress, server-side service, response payload
// over server egress.  Response delivery to the client NIC is not modeled
// as a bottleneck (7 clients never saturate their own ingress in any of
// the paper's scenarios), which keeps event counts proportional to RPCs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qif/sim/fair_link.hpp"
#include "qif/sim/pipe.hpp"
#include "qif/sim/simulation.hpp"
#include "qif/pfs/types.hpp"

namespace qif::pfs {

struct NetworkParams {
  double bytes_per_second = 1e9;                       ///< per-port capacity
  sim::SimDuration latency = 60 * sim::kMicrosecond;   ///< per-message propagation
  std::int64_t rpc_header_bytes = 256;                 ///< framing per RPC message
};

class NetworkFabric {
 public:
  /// `n_server_ports`: one per OSS plus one for the MDS.
  NetworkFabric(sim::Simulation& sim, const NetworkParams& params, int n_client_nodes,
                int n_server_ports);

  NetworkFabric(const NetworkFabric&) = delete;
  NetworkFabric& operator=(const NetworkFabric&) = delete;

  /// Runs a full RPC.  `serve(done)` is invoked on the server once the
  /// request arrives; the server calls `done()` when its work completes,
  /// which triggers the response transfer; `on_complete` fires at the
  /// client when the response lands.
  void rpc(NodeId client, int server_port, std::int64_t request_payload,
           std::int64_t response_payload,
           std::function<void(std::function<void()>)> serve,
           std::function<void()> on_complete);

  [[nodiscard]] int n_client_nodes() const { return static_cast<int>(client_egress_.size()); }
  [[nodiscard]] int n_server_ports() const { return static_cast<int>(server_ingress_.size()); }
  [[nodiscard]] std::size_t server_ingress_flows(int port) const {
    return server_ingress_[port]->active();
  }
  [[nodiscard]] std::size_t server_egress_flows(int port) const {
    return server_egress_[port]->active();
  }

  /// Fault injection: `make_gate(resource)` is called once per fabric
  /// resource (every client egress pipe and server ingress/egress link)
  /// with a stable resource name and must return that resource's
  /// message-loss gate.  Each resource consults its own gate per message,
  /// so a gate that owns its RNG stream sees a drop sequence that depends
  /// only on that resource's own traffic.
  void install_loss_gates(
      const std::function<std::function<bool()>(const std::string& resource)>& make_gate);

  /// Total messages dropped by loss gates across all fabric resources.
  [[nodiscard]] std::uint64_t messages_dropped() const;

 private:
  sim::Simulation& sim_;
  NetworkParams params_;
  std::vector<std::unique_ptr<sim::Pipe>> client_egress_;
  std::vector<std::unique_ptr<sim::FairLink>> server_ingress_;
  std::vector<std::unique_ptr<sim::FairLink>> server_egress_;
};

}  // namespace qif::pfs
