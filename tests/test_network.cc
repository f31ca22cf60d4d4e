#include "src/net/network.h"

#include <gtest/gtest.h>

#include "src/net/topology.h"
#include "src/sim/engine.h"

namespace hlrc {
namespace {

Message MakeMsg(NodeId src, NodeId dst, int64_t update = 0, int64_t proto = 0,
                MsgType type = MsgType::kPageRequest) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.type = type;
  m.update_bytes = update;
  m.protocol_bytes = proto;
  return m;
}

TEST(Mesh2D, SquareDimensions) {
  Mesh2D mesh(64);
  EXPECT_EQ(mesh.rows(), 8);
  EXPECT_EQ(mesh.cols(), 8);
}

TEST(Mesh2D, NonSquareNodeCounts) {
  Mesh2D mesh(8);
  EXPECT_EQ(mesh.rows() * mesh.cols(), 8);
  Mesh2D mesh32(32);
  EXPECT_GE(mesh32.rows() * mesh32.cols(), 32);
}

TEST(Mesh2D, HopsAreManhattanDistance) {
  Mesh2D mesh(16);  // 4x4.
  EXPECT_EQ(mesh.Hops(0, 0), 0);
  EXPECT_EQ(mesh.Hops(0, 3), 3);
  EXPECT_EQ(mesh.Hops(0, 15), 6);
  EXPECT_EQ(mesh.Hops(5, 10), 2);
}

TEST(Network, DeliversWithLatencyAndTransferTime) {
  Engine e;
  NetworkConfig cfg;
  cfg.base_latency = Micros(50);
  cfg.per_hop = 0;
  cfg.per_byte = Nanos(43);
  cfg.header_bytes = 0;
  Network net(&e, 4, cfg);
  SimTime delivered = -1;
  net.SetHandler(1, [&](Message) { delivered = e.Now(); });
  net.SetHandler(0, [](Message) {});
  net.Send(MakeMsg(0, 1, 8192, 0));
  e.Run();
  EXPECT_EQ(delivered, Micros(50) + 8192 * Nanos(43));
}

TEST(Network, SmallMessageIsLatencyBound) {
  Engine e;
  NetworkConfig cfg;
  cfg.header_bytes = 0;
  Network net(&e, 4, cfg);
  SimTime delivered = -1;
  net.SetHandler(1, [&](Message) { delivered = e.Now(); });
  net.Send(MakeMsg(0, 1, 0, 4));
  e.Run();
  EXPECT_NEAR(static_cast<double>(delivered), static_cast<double>(Micros(50)),
              static_cast<double>(Micros(1)));
}

TEST(Network, ReceiverSerializesConcurrentSenders) {
  Engine e;
  NetworkConfig cfg;
  cfg.header_bytes = 0;
  cfg.per_hop = 0;
  Network net(&e, 4, cfg);
  std::vector<SimTime> arrivals;
  net.SetHandler(0, [&](Message) { arrivals.push_back(e.Now()); });
  // Two full pages sent simultaneously from different nodes to node 0: the
  // second is serialized behind the first at the receiving NIC (hot spot).
  net.Send(MakeMsg(1, 0, 8192, 0));
  net.Send(MakeMsg(2, 0, 8192, 0));
  e.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  const SimTime xfer = 8192 * NetworkConfig().per_byte;
  EXPECT_EQ(arrivals[1] - arrivals[0], xfer);
}

TEST(Network, SenderSerializesItsOwnMessages) {
  Engine e;
  NetworkConfig cfg;
  cfg.header_bytes = 0;
  cfg.per_hop = 0;
  Network net(&e, 4, cfg);
  std::vector<SimTime> arrivals;
  net.SetHandler(1, [&](Message) { arrivals.push_back(e.Now()); });
  net.SetHandler(2, [&](Message) { arrivals.push_back(e.Now()); });
  net.Send(MakeMsg(0, 1, 8192, 0));
  net.Send(MakeMsg(0, 2, 8192, 0));
  e.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GT(arrivals[1], arrivals[0]);
}

TEST(Network, FifoPerPair) {
  Engine e;
  NetworkConfig cfg;
  Network net(&e, 2, cfg);
  std::vector<int> order;
  net.SetHandler(1, [&](Message m) { order.push_back(static_cast<int>(m.update_bytes)); });
  for (int i = 1; i <= 5; ++i) {
    net.Send(MakeMsg(0, 1, i, 0));
  }
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Network, TrafficStatsSplitUpdateAndProtocol) {
  Engine e;
  NetworkConfig cfg;
  cfg.header_bytes = 32;
  Network net(&e, 2, cfg);
  net.SetHandler(1, [](Message) {});
  net.Send(MakeMsg(0, 1, 100, 20, MsgType::kDiffFlush));
  net.Send(MakeMsg(0, 1, 0, 8, MsgType::kLockRequest));
  e.Run();
  const TrafficStats& s = net.NodeStats(0);
  EXPECT_EQ(s.msgs_sent, 2);
  EXPECT_EQ(s.update_bytes_sent, 100);
  EXPECT_EQ(s.protocol_bytes_sent, 20 + 8 + 2 * 32);
  EXPECT_EQ(s.msgs_by_type[static_cast<int>(MsgType::kDiffFlush)], 1);
  EXPECT_EQ(net.NodeStats(1).msgs_received, 2);
}

TEST(Network, HopLatencyIncreasesWithDistance) {
  Engine e;
  NetworkConfig cfg;
  cfg.per_hop = Micros(1);
  cfg.header_bytes = 0;
  Network net(&e, 16, cfg);
  SimTime near_t = 0;
  SimTime far_t = 0;
  net.SetHandler(1, [&](Message) { near_t = e.Now(); });
  net.SetHandler(15, [&](Message) { far_t = e.Now(); });
  net.Send(MakeMsg(0, 1, 0, 4));
  net.Send(MakeMsg(0, 15, 0, 4));
  e.Run();
  EXPECT_GT(far_t, near_t);
}

}  // namespace
}  // namespace hlrc
