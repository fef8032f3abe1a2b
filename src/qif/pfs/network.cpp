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
    const std::function<std::function<bool()>(const std::string& resource)>& make_gate) {
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

void NetworkFabric::rpc(NodeId client, int server_port, std::int64_t request_payload,
                        std::int64_t response_payload,
                        std::function<void(std::function<void()>)> serve,
                        std::function<void()> on_complete) {
  assert(client >= 0 && client < n_client_nodes());
  assert(server_port >= 0 && server_port < n_server_ports());
  if (!on_complete) on_complete = [] {};  // fire-and-forget RPCs are legal
  const std::int64_t req_bytes = request_payload + params_.rpc_header_bytes;
  const std::int64_t resp_bytes = response_payload + params_.rpc_header_bytes;

  auto* ingress = server_ingress_[server_port].get();
  auto* egress = server_egress_[server_port].get();

  client_egress_[client]->send(req_bytes, [this, ingress, egress, req_bytes, resp_bytes,
                                           serve = std::move(serve),
                                           on_complete = std::move(on_complete)]() mutable {
    ingress->transfer(req_bytes, [this, egress, resp_bytes, serve = std::move(serve),
                                  on_complete = std::move(on_complete)]() mutable {
      serve([this, egress, resp_bytes, on_complete = std::move(on_complete)]() mutable {
        egress->transfer(resp_bytes, [this, on_complete = std::move(on_complete)]() mutable {
          // Response propagation back to the client host.
          sim_.schedule_after(params_.latency, std::move(on_complete));
        });
      });
    });
  });
}

}  // namespace qif::pfs
