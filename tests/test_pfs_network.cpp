// Tests for the RPC fabric: request/response sequencing, port fan-in,
// contention behaviour, call-slot release on message loss, and the client
// retry machine's stragglers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qif/pfs/cluster.hpp"
#include "qif/pfs/network.hpp"
#include "qif/sim/simulation.hpp"

namespace qif::pfs {
namespace {

NetworkParams fast_params() {
  NetworkParams p;
  p.bytes_per_second = 1e9;
  p.latency = 100 * sim::kMicrosecond;
  return p;
}

TEST(NetworkFabric, RpcRunsServeBetweenTransfers) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 2, 2);
  std::vector<int> order;
  net.rpc(
      0, 1, 0, 0,
      [&](RpcDone done) {
        order.push_back(1);  // serve
        s.schedule_after(sim::kMillisecond, done);
      },
      [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(NetworkFabric, SmallRpcLatencyIsBounded) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 1, 1);
  sim::SimTime done = 0;
  net.rpc(0, 0, 256, 256, [](RpcDone d) { d(); },
          [&] { done = s.now(); });
  s.run_all();
  // Two propagation hops + tiny serializations: well under a millisecond.
  EXPECT_GT(done, 2 * fast_params().latency);
  EXPECT_LT(sim::to_millis(done), 1.0);
}

TEST(NetworkFabric, LargePayloadPaysSerialization) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 1, 1);
  sim::SimTime small_done = 0, big_done = 0;
  {
    sim::Simulation s2;
    NetworkFabric net2(s2, fast_params(), 1, 1);
    net2.rpc(0, 0, 0, 256, [](RpcDone d) { d(); },
             [&] { small_done = s2.now(); });
    s2.run_all();
  }
  net.rpc(0, 0, 0, 100 << 20, [](RpcDone d) { d(); },
          [&] { big_done = s.now(); });
  s.run_all();
  // 100 MiB at 1 GB/s ~ 105 ms of response serialization.
  EXPECT_GT(sim::to_millis(big_done) - sim::to_millis(small_done), 90.0);
}

TEST(NetworkFabric, ClientEgressSerializesRanksOnOneNode) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 1, 1);
  std::vector<sim::SimTime> done;
  for (int i = 0; i < 2; ++i) {
    net.rpc(0, 0, 50 << 20, 0, [](RpcDone d) { d(); },
            [&] { done.push_back(s.now()); });
  }
  s.run_all();
  ASSERT_EQ(done.size(), 2u);
  // The second request's 50 MiB must wait for the first on the shared
  // node NIC: clearly serialized, not overlapped.
  EXPECT_GT(sim::to_millis(done[1]), sim::to_millis(done[0]) + 40.0);
}

TEST(NetworkFabric, ServerIngressSharesFairlyAcrossNodes) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 2, 1);
  std::vector<sim::SimTime> done(2);
  for (int node = 0; node < 2; ++node) {
    net.rpc(node, 0, 100 << 20, 0, [](RpcDone d) { d(); },
            [&, node] { done[static_cast<std::size_t>(node)] = s.now(); });
  }
  s.run_all();
  // Two equal flows from different nodes converge on one ingress: both
  // finish around 2x the solo time, and close to each other.
  const double a = sim::to_millis(done[0]);
  const double b = sim::to_millis(done[1]);
  EXPECT_NEAR(a, b, 30.0);
  EXPECT_GT(std::max(a, b), 180.0);  // ~2 x 105 ms
}

TEST(NetworkFabric, FlowGaugesTrackActivity) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 1, 2);
  net.rpc(0, 1, 40 << 20, 0, [](RpcDone d) { d(); }, nullptr);
  // Nothing in flight on port 0; port 1 becomes active once the request
  // clears the client NIC (~42 ms serialization) and enters the ingress.
  s.run_until(45 * sim::kMillisecond);
  EXPECT_EQ(net.server_ingress_flows(0), 0u);
  EXPECT_EQ(net.server_ingress_flows(1), 1u);
  s.run_all();
  EXPECT_EQ(net.server_ingress_flows(1), 0u);
}

TEST(NetworkFabric, ManyConcurrentRpcsAllComplete) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 4, 3);
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    net.rpc(i % 4, i % 3, 4096, 4096,
            [&s](RpcDone d) { s.schedule_after(10, d); },
            [&] { ++done; });
  }
  s.run_all();
  EXPECT_EQ(done, 200);
  // Every call slot went back to the free list and is reused.
  EXPECT_EQ(net.calls_in_flight(), 0u);
  EXPECT_LE(net.call_slab_size(), 200u);
  const std::size_t slab = net.call_slab_size();
  for (int i = 0; i < 200; ++i) {
    net.rpc(i % 4, i % 3, 4096, 4096,
            [&s](RpcDone d) { s.schedule_after(10, d); }, [&] { ++done; });
  }
  s.run_all();
  EXPECT_EQ(done, 400);
  EXPECT_EQ(net.call_slab_size(), slab);
}

// Installs loss gates that drop every message on the fabric resources whose
// name starts with `prefix` ("egress-pipe/", "ingress-link/",
// "egress-link/") and nothing elsewhere.
void drop_every_message_on(NetworkFabric& net, const std::string& prefix) {
  net.install_loss_gates([prefix = prefix](const std::string& resource) {
    const bool drop = resource.rfind(prefix, 0) == 0;
    return sim::InlineFn<bool()>([drop] { return drop; });
  });
}

struct LossCounts {
  int served = 0;
  int completed = 0;
};

// 10k RPCs, all lost on one hop: each must free its call slot right where
// it was dropped, so the slab stays bounded by the in-flight window (100
// RPCs between drains), not by the number of RPCs ever issued.
LossCounts run_dropped_rpcs(sim::Simulation& s, NetworkFabric& net, const std::string& hop) {
  drop_every_message_on(net, hop);
  LossCounts counts;
  for (int i = 0; i < 10000; ++i) {
    net.rpc(i % 2, i % 2, 4096, 4096,
            [&counts](RpcDone d) {
              ++counts.served;
              d();
            },
            [&counts] { ++counts.completed; });
    if (i % 100 == 99) s.run_all();
  }
  s.run_all();
  EXPECT_EQ(counts.completed, 0);
  EXPECT_EQ(net.messages_dropped(), 10000u);
  EXPECT_EQ(net.calls_in_flight(), 0u);
  EXPECT_LE(net.call_slab_size(), 100u);
  return counts;
}

TEST(NetworkFabric, DropOnClientEgressFreesCallSlot) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 2, 2);
  EXPECT_EQ(run_dropped_rpcs(s, net, "egress-pipe/").served, 0);
  EXPECT_EQ(net.call_slab_size(), 1u);  // dropped inside rpc() itself
}

TEST(NetworkFabric, DropOnServerIngressFreesCallSlot) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 2, 2);
  EXPECT_EQ(run_dropped_rpcs(s, net, "ingress-link/").served, 0);
}

TEST(NetworkFabric, DropOnServerEgressFreesCallSlot) {
  sim::Simulation s;
  NetworkFabric net(s, fast_params(), 2, 2);
  // The request arrived and was served; only the response is lost.
  EXPECT_EQ(run_dropped_rpcs(s, net, "egress-link/").served, 10000);
}

// A retry straggler: the op settles (EIO after its last timeout) while both
// attempts' requests are still queued on the client NIC.  Each attempt's
// request still lands at the OST afterwards and re-runs the op's serve — the
// write is absorbed twice, like a resent RPC — but the op completes exactly
// once, with exactly one trace record.
TEST(NetworkFabric, RetryStragglerAfterSettleReRunsServeAndNeverCompletesTwice) {
  sim::Simulation s;
  ClusterConfig cfg;
  cfg.ost_disk.service_jitter = 0.0;
  cfg.client.max_rpc_bytes = 8 << 20;  // one 4 MiB chunk
  cfg.client.rpc_deadline = sim::kMillisecond;
  cfg.client.rpc_max_retries = 1;
  cfg.client.retry_backoff = sim::kMillisecond;
  cfg.client.retry_jitter = 0.0;
  Cluster cluster(s, cfg);
  PfsClient& client = cluster.make_client(0, 0, 0);
  // A hand-made handle keeps the MDS (and its multi-millisecond journal
  // commit) out of the picture.
  const FileLayout layout(1, {0}, cfg.stripe_size, cfg.ost_disk.capacity_bytes);
  const FileHandle fh{1, &layout, 0};
  constexpr std::int64_t kLen = 4 << 20;  // ~4.2 ms per hop at 1 GB/s

  int completions = 0;
  sim::SimTime settled_at = 0;
  std::int64_t absorbed_at_settle = -1;
  client.write(fh, 0, kLen, [&] {
    ++completions;
    settled_at = s.now();
    absorbed_at_settle = cluster.ost(0).cache().total_absorbed();
  });
  s.run_all();

  EXPECT_EQ(completions, 1);
  // Attempt 1 times out at 1 ms, attempt 2 goes out at 2 ms and times out
  // at 3 ms: EIO, long before either request clears the NIC.
  EXPECT_EQ(settled_at, 3 * sim::kMillisecond);
  EXPECT_EQ(absorbed_at_settle, 0);
  EXPECT_EQ(cluster.ost(0).cache().total_absorbed(), 2 * kLen);
  ASSERT_EQ(cluster.trace_log().size(), 1u);
  const trace::OpRecord& rec = cluster.trace_log().records().front();
  EXPECT_TRUE(rec.failed);
  EXPECT_EQ(rec.retries, 1);
  EXPECT_EQ(rec.timeouts, 2);
  EXPECT_EQ(cluster.net().calls_in_flight(), 0u);
}

}  // namespace
}  // namespace qif::pfs
