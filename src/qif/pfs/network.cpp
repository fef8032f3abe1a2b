#include "qif/pfs/network.hpp"

#include <cassert>
#include <utility>

namespace qif::pfs {

NetworkFabric::NetworkFabric(sim::Simulation& sim, const NetworkParams& params,
                             int n_client_nodes, int n_server_ports)
    : sim_(sim), params_(params) {
  client_egress_.reserve(static_cast<std::size_t>(n_client_nodes));
  for (int i = 0; i < n_client_nodes; ++i) {
    client_egress_.push_back(
        std::make_unique<sim::Pipe>(sim, params_.bytes_per_second, params_.latency));
  }
  server_ingress_.reserve(static_cast<std::size_t>(n_server_ports));
  server_egress_.reserve(static_cast<std::size_t>(n_server_ports));
  for (int i = 0; i < n_server_ports; ++i) {
    server_ingress_.push_back(std::make_unique<sim::FairLink>(sim, params_.bytes_per_second));
    server_egress_.push_back(std::make_unique<sim::FairLink>(sim, params_.bytes_per_second));
  }
}

void NetworkFabric::install_loss_gates(
    sim::InlineFn<sim::InlineFn<bool()>(const std::string& resource)> make_gate) {
  for (std::size_t i = 0; i < client_egress_.size(); ++i) {
    client_egress_[i]->set_loss_gate(make_gate("egress-pipe/" + std::to_string(i)));
  }
  for (std::size_t p = 0; p < server_ingress_.size(); ++p) {
    server_ingress_[p]->set_loss_gate(make_gate("ingress-link/" + std::to_string(p)));
    server_egress_[p]->set_loss_gate(make_gate("egress-link/" + std::to_string(p)));
  }
}

std::uint64_t NetworkFabric::messages_dropped() const {
  std::uint64_t n = 0;
  for (const auto& p : client_egress_) n += p->messages_dropped();
  for (const auto& l : server_ingress_) n += l->messages_dropped();
  for (const auto& l : server_egress_) n += l->messages_dropped();
  return n;
}

std::uint32_t NetworkFabric::acquire_call() {
  if (!free_calls_.empty()) {
    const std::uint32_t id = free_calls_.back();
    free_calls_.pop_back();
    return id;
  }
  calls_.emplace_back();
  return static_cast<std::uint32_t>(calls_.size() - 1);
}

void NetworkFabric::release_call(std::uint32_t id) {
  // Destroy the closures now (not on reuse) so captured state is freed as
  // soon as the RPC ends; destruction never runs them.
  calls_[id].serve.reset();
  calls_[id].on_complete.reset();
  free_calls_.push_back(id);
}

// Every hop below captures only {this, id}: the event closures stay far
// under the inline budget, and a slot's address may move (the slab grows
// while RPCs are in flight), so nothing holds a reference into calls_
// across a call that can start another RPC.

void NetworkFabric::rpc(NodeId client, int server_port, std::int64_t request_payload,
                        std::int64_t response_payload, Serve serve,
                        sim::InlineTask on_complete) {
  assert(client >= 0 && client < n_client_nodes());
  assert(server_port >= 0 && server_port < n_server_ports());
  const std::uint32_t id = acquire_call();
  Call& call = calls_[id];
  call.serve = std::move(serve);
  call.on_complete = std::move(on_complete);
  call.request_bytes = request_payload + params_.rpc_header_bytes;
  call.response_bytes = response_payload + params_.rpc_header_bytes;
  call.server_port = server_port;
  if (!client_egress_[client]->send(call.request_bytes, [this, id] { on_request_sent(id); })) {
    release_call(id);
  }
}

void NetworkFabric::on_request_sent(std::uint32_t id) {
  const Call& call = calls_[id];
  if (!server_ingress_[call.server_port]->transfer(call.request_bytes,
                                                   [this, id] { on_request_arrived(id); })) {
    release_call(id);
  }
}

void NetworkFabric::on_request_arrived(std::uint32_t id) {
  // Move serve out before running it: it may start other RPCs (growing the
  // slab) or call done() synchronously.
  Serve serve = std::move(calls_[id].serve);
  serve(RpcDone(this, id));
}

void NetworkFabric::respond(std::uint32_t id) {
  const Call& call = calls_[id];
  if (!server_egress_[call.server_port]->transfer(call.response_bytes,
                                                  [this, id] { on_response_sent(id); })) {
    release_call(id);
  }
}

void NetworkFabric::on_response_sent(std::uint32_t id) {
  // Response propagation back to the client host.
  sim_.schedule_after(params_.latency, [this, id] { on_response_arrived(id); });
}

void NetworkFabric::on_response_arrived(std::uint32_t id) {
  sim::InlineTask on_complete = std::move(calls_[id].on_complete);
  release_call(id);
  if (on_complete) on_complete();
}

}  // namespace qif::pfs
