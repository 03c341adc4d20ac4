// RotorLB agent and relay-buffer unit tests on a two-host wire.
#include "transport/rotorlb.h"

#include <gtest/gtest.h>

#include <memory>

#include "net/host.h"
#include "sim/simulator.h"

namespace opera::transport {
namespace {

class Wire {
 public:
  Wire() {
    net::PortQueue::Config q;
    q.bulk_capacity_bytes = 100'000'000;
    a = std::make_unique<net::Host>(ctx, "a", 0, 0);
    b = std::make_unique<net::Host>(ctx, "b", 1, 1);
    a->add_port(10e9, sim::Time::ns(500), q);
    b->add_port(10e9, sim::Time::ns(500), q);
    a->uplink().connect(b.get(), 0);
    b->uplink().connect(a.get(), 0);
    agent = std::make_unique<RotorLbAgent>(*a, tracker);
  }

  Flow make_flow(std::int64_t bytes, std::int32_t dst_rack = 1) {
    Flow f;
    f.id = tracker.next_flow_id();
    f.src_host = 0;
    f.dst_host = 1;
    f.src_rack = 0;
    f.dst_rack = dst_rack;
    f.size_bytes = bytes;
    f.tclass = net::TrafficClass::kBulk;
    f.start = sim.now();
    tracker.register_flow(f);
    return f;
  }

  sim::Simulator sim;
  sim::ShardContext ctx{sim};
  FlowTracker tracker;
  std::unique_ptr<net::Host> a;
  std::unique_ptr<net::Host> b;
  std::unique_ptr<RotorLbAgent> agent;
};

TEST(RotorLbAgent, QueuesByDestinationRack) {
  Wire w;
  w.agent->add_flow(w.make_flow(10'000, 1));
  w.agent->add_flow(w.make_flow(20'000, 2));
  EXPECT_GT(w.agent->queued_bytes(1), 10'000);  // wire bytes include headers
  EXPECT_GT(w.agent->queued_bytes(2), 20'000);
  EXPECT_EQ(w.agent->queued_bytes(3), 0);
  EXPECT_EQ(w.agent->total_queued(),
            w.agent->queued_bytes(1) + w.agent->queued_bytes(2));
}

TEST(RotorLbAgent, GrantDirectRespectsBudget) {
  Wire w;
  w.agent->add_flow(w.make_flow(100'000, 1));
  const auto sent = w.agent->grant_direct(1, 10'000);
  EXPECT_GT(sent, 0);
  EXPECT_LE(sent, 10'000 + net::kMtuBytes);  // may overshoot by < 1 MTU
  EXPECT_EQ(w.agent->total_queued() + sent,
            w.agent->queued_bytes(1) + sent);  // bookkeeping consistent
}

TEST(RotorLbAgent, GrantDirectWrongRackSendsNothing) {
  Wire w;
  w.agent->add_flow(w.make_flow(100'000, 2));
  EXPECT_EQ(w.agent->grant_direct(1, 50'000), 0);
}

TEST(RotorLbAgent, PacketsArriveAtSink) {
  Wire w;
  const Flow f = w.make_flow(30'000, 1);
  auto sink = std::make_unique<RotorLbSink>(*w.b, f, w.tracker);
  w.b->register_flow(f.id, sink.get());
  w.agent->add_flow(f);
  while (w.agent->queued_bytes(1) > 0) {
    (void)w.agent->grant_direct(1, 1'000'000);
  }
  w.sim.run_until(sim::Time::ms(1));
  EXPECT_EQ(w.tracker.completed(), 1u);
  EXPECT_TRUE(sink->complete());
}

TEST(RotorLbAgent, VlbMarksRelayPackets) {
  Wire w;
  w.agent->add_flow(w.make_flow(10'000, 2));  // destined rack 2
  // Granting VLB via rack 1 should send the rack-2 traffic with relay
  // markings; host b (rack 1 stand-in) will receive marked packets.
  struct Keep final : net::DefaultHandler {
    void on_unclaimed(net::Host&, net::PacketPtr p) override { seen = std::move(p); }
    net::PacketPtr seen;
  } keep;
  net::PacketPtr& seen = keep.seen;
  w.b->set_default_handler(&keep);
  std::vector<std::int64_t> in_budget(4, 1'000'000);
  const auto sent = w.agent->grant_vlb(1, 5'000, std::span<std::int64_t>(in_budget));
  EXPECT_GT(sent, 0);
  w.sim.run_until(sim::Time::ms(1));
  ASSERT_NE(seen, nullptr);
  EXPECT_TRUE(seen->vlb_relay);
  EXPECT_EQ(seen->relay_rack, 1);
  EXPECT_EQ(seen->dst_rack, 2);
}

TEST(RotorLbAgent, VlbSkipsTrafficDestinedToRelay) {
  Wire w;
  w.agent->add_flow(w.make_flow(10'000, 1));
  // All queued traffic is for rack 1; VLB via rack 1 must send nothing.
  std::vector<std::int64_t> in_budget(4, 1'000'000);
  EXPECT_EQ(w.agent->grant_vlb(1, 50'000, std::span<std::int64_t>(in_budget)), 0);
}

TEST(RotorLbAgent, NackRequeuesPacket) {
  Wire w;
  const Flow f = w.make_flow(30'000, 1);
  w.agent->add_flow(f);
  while (w.agent->queued_bytes(1) > 0) {
    (void)w.agent->grant_direct(1, 1'000'000);
  }
  EXPECT_EQ(w.agent->queued_bytes(1), 0);
  w.agent->handle_nack(f.id, 3);
  EXPECT_EQ(w.agent->queued_bytes(1), f.wire_bytes(3));
  // Re-granting sends exactly that packet again.
  EXPECT_EQ(w.agent->grant_direct(1, 1'000'000), f.wire_bytes(3));
}

TEST(RotorRelayBuffer, StoreAndTake) {
  RotorRelayBuffer buf;
  for (int i = 0; i < 3; ++i) {
    auto pkt = net::make_packet();
    pkt->size_bytes = 1'000;
    pkt->dst_rack = 2;
    pkt->vlb_relay = true;
    pkt->relay_rack = 1;
    buf.store(std::move(pkt));
  }
  EXPECT_EQ(buf.queued_bytes(2), 3'000);
  const auto taken = buf.take(2, 2'000);
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(buf.queued_bytes(2), 1'000);
  // Relay markings cleared for the final direct hop.
  EXPECT_FALSE(taken[0]->vlb_relay);
  EXPECT_EQ(taken[0]->relay_rack, -1);
}

TEST(RotorRelayBuffer, TakeEmptyRack) {
  RotorRelayBuffer buf;
  EXPECT_TRUE(buf.take(3, 10'000).empty());
  EXPECT_EQ(buf.total_bytes(), 0);
}

TEST(RotorLbAgent, SinkIgnoresDuplicates) {
  Wire w;
  const Flow f = w.make_flow(5'000, 1);
  RotorLbSink sink(*w.b, f, w.tracker);
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t s = 0; s < f.total_packets(); ++s) {
      auto pkt = net::make_packet();
      pkt->flow_id = f.id;
      pkt->seq = s;
      pkt->type = net::PacketType::kData;
      pkt->size_bytes = f.wire_bytes(s);
      sink.on_packet(std::move(pkt));
    }
  }
  EXPECT_TRUE(sink.complete());
  EXPECT_EQ(w.tracker.completed(), 1u);  // reported once
}

}  // namespace
}  // namespace opera::transport
