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
//
// Allocation discipline: an in-flight RPC's state (its serve and
// completion closures, port and payload sizes) lives in a recycled Call
// slot owned by the fabric, the way Pipe pools its delivery slots.  Every
// hop's event captures only {this, call id}; the server is handed a
// two-word RpcDone handle; a message dropped by a loss gate frees its slot
// immediately.  After warm-up an RPC performs no heap allocation
// (asserted by test_sim_alloc).  Stored closures are destroyed, never
// run, when a slot is freed or the fabric is torn down, so they must not
// do work in their destructors: the engine outlives the cluster.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qif/sim/fair_link.hpp"
#include "qif/sim/inline_task.hpp"
#include "qif/sim/pipe.hpp"
#include "qif/sim/simulation.hpp"
#include "qif/pfs/types.hpp"

namespace qif::pfs {

struct NetworkParams {
  double bytes_per_second = 1e9;                       ///< per-port capacity
  sim::SimDuration latency = 60 * sim::kMicrosecond;   ///< per-message propagation
  std::int64_t rpc_header_bytes = 256;                 ///< framing per RPC message
};

class NetworkFabric;

/// The server's handle on an in-flight RPC: calling it marks the server
/// work done and starts the response transfer.  Two words; call it at most
/// once.
class RpcDone {
 public:
  void operator()() const;

 private:
  friend class NetworkFabric;
  RpcDone(NetworkFabric* fabric, std::uint32_t call) : fabric_(fabric), call_(call) {}
  NetworkFabric* fabric_;
  std::uint32_t call_;
};

class NetworkFabric {
 public:
  /// Server-side work of one RPC; receives the handle to call once done.
  using Serve = sim::InlineFn<void(RpcDone)>;

  /// `n_server_ports`: one per OSS plus one for the MDS.
  NetworkFabric(sim::Simulation& sim, const NetworkParams& params, int n_client_nodes,
                int n_server_ports);

  NetworkFabric(const NetworkFabric&) = delete;
  NetworkFabric& operator=(const NetworkFabric&) = delete;

  /// Runs a full RPC.  `serve(done)` is invoked on the server once the
  /// request arrives; the server calls `done()` when its work completes,
  /// which triggers the response transfer; `on_complete` (may be empty)
  /// fires at the client when the response lands.  A message lost on any
  /// hop ends the RPC there: neither closure runs again.
  void rpc(NodeId client, int server_port, std::int64_t request_payload,
           std::int64_t response_payload, Serve serve, sim::InlineTask on_complete);

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
  void install_loss_gates(sim::InlineFn<sim::InlineFn<bool()>(const std::string& resource)>
                              make_gate);

  /// Total messages dropped by loss gates across all fabric resources.
  [[nodiscard]] std::uint64_t messages_dropped() const;

  /// Call slots ever allocated (in flight + free-listed).  Bounded by the
  /// peak number of simultaneously in-flight RPCs — exposed so tests can
  /// assert that dropped messages release their slots.
  [[nodiscard]] std::size_t call_slab_size() const { return calls_.size(); }
  /// RPCs currently in flight.
  [[nodiscard]] std::size_t calls_in_flight() const {
    return calls_.size() - free_calls_.size();
  }

 private:
  friend class RpcDone;

  struct Call {
    Serve serve;
    sim::InlineTask on_complete;
    std::int64_t request_bytes = 0;
    std::int64_t response_bytes = 0;
    int server_port = 0;
  };

  std::uint32_t acquire_call();
  void release_call(std::uint32_t id);
  void on_request_sent(std::uint32_t id);
  void on_request_arrived(std::uint32_t id);
  void respond(std::uint32_t id);
  void on_response_sent(std::uint32_t id);
  void on_response_arrived(std::uint32_t id);

  sim::Simulation& sim_;
  NetworkParams params_;
  std::vector<std::unique_ptr<sim::Pipe>> client_egress_;
  std::vector<std::unique_ptr<sim::FairLink>> server_ingress_;
  std::vector<std::unique_ptr<sim::FairLink>> server_egress_;
  std::vector<Call> calls_;
  std::vector<std::uint32_t> free_calls_;
};

inline void RpcDone::operator()() const { fabric_->respond(call_); }

}  // namespace qif::pfs
