#include "transport/flow.h"

#include <gtest/gtest.h>

namespace opera::transport {
namespace {

Flow make_flow(std::uint64_t id, std::int64_t bytes) {
  Flow f;
  f.id = id;
  f.src_host = 0;
  f.dst_host = 1;
  f.size_bytes = bytes;
  f.start = sim::Time::zero();
  return f;
}

TEST(Flow, PacketCount) {
  EXPECT_EQ(make_flow(1, 1).total_packets(), 1u);
  EXPECT_EQ(make_flow(1, net::kMaxPayloadBytes).total_packets(), 1u);
  EXPECT_EQ(make_flow(1, net::kMaxPayloadBytes + 1).total_packets(), 2u);
  EXPECT_EQ(make_flow(1, 10 * net::kMaxPayloadBytes).total_packets(), 10u);
}

TEST(Flow, WireBytes) {
  const auto f = make_flow(1, net::kMaxPayloadBytes + 100);
  EXPECT_EQ(f.wire_bytes(0), net::kMtuBytes);
  EXPECT_EQ(f.wire_bytes(1), 100 + net::kHeaderBytes);
}

TEST(Flow, WireBytesSumMatchesSize) {
  const auto f = make_flow(1, 1'000'000);
  std::int64_t payload_total = 0;
  for (std::uint64_t s = 0; s < f.total_packets(); ++s) {
    payload_total += f.wire_bytes(s) - net::kHeaderBytes;
  }
  EXPECT_EQ(payload_total, 1'000'000);
}

TEST(FlowTracker, RegisterAndFind) {
  FlowTracker t;
  const auto id = t.next_flow_id();
  auto f = make_flow(id, 5'000);
  t.register_flow(f);
  ASSERT_NE(t.find(id), nullptr);
  EXPECT_EQ(t.find(id)->size_bytes, 5'000);
  EXPECT_EQ(t.find(9999), nullptr);
}

TEST(FlowTracker, CompletionRecordsFct) {
  FlowTracker t;
  auto f = make_flow(t.next_flow_id(), 5'000);
  f.start = sim::Time::us(10);
  t.register_flow(f);
  t.on_complete(f.id, sim::Time::us(250));
  ASSERT_EQ(t.completed(), 1u);
  EXPECT_DOUBLE_EQ(t.completions()[0].fct().to_us(), 240.0);
}

TEST(FlowTracker, CompletionHookFires) {
  FlowTracker t;
  int hooks = 0;
  t.set_completion_hook([&](const FlowRecord&) { ++hooks; });
  auto f = make_flow(t.next_flow_id(), 100);
  t.register_flow(f);
  t.on_complete(f.id, sim::Time::us(1));
  EXPECT_EQ(hooks, 1);
}

TEST(FlowTracker, DeliveryHookAccumulates) {
  FlowTracker t;
  std::int64_t delivered = 0;
  t.set_delivery_hook([&](const Flow&, std::int64_t bytes, sim::Time) { delivered += bytes; });
  auto f = make_flow(t.next_flow_id(), 100);
  t.register_flow(f);
  t.on_delivered(f.id, 60, sim::Time::us(1));
  t.on_delivered(f.id, 40, sim::Time::us(2));
  EXPECT_EQ(delivered, 100);
}

TEST(FlowTracker, FctPercentilesBySizeBucket) {
  FlowTracker t;
  for (int i = 0; i < 10; ++i) {
    auto small = make_flow(t.next_flow_id(), 1'000);
    t.register_flow(small);
    t.on_complete(small.id, sim::Time::us(10 + i));
    auto big = make_flow(t.next_flow_id(), 1'000'000);
    t.register_flow(big);
    t.on_complete(big.id, sim::Time::ms(5));
  }
  const auto small_fct = t.fct_us(0, 10'000);
  const auto big_fct = t.fct_us(10'000, 1LL << 40);
  EXPECT_EQ(small_fct.count(), 10u);
  EXPECT_EQ(big_fct.count(), 10u);
  EXPECT_LT(small_fct.percentile(99), 25.0);
  EXPECT_GT(big_fct.percentile(50), 1'000.0);
}

TEST(FlowTracker, UniqueIds) {
  FlowTracker t;
  const auto a = t.next_flow_id();
  const auto b = t.next_flow_id();
  EXPECT_NE(a, b);
}

// The registry is indexed by id: ids run densely from 1, in registration
// order, and every id outside [1, registered()] finds nothing.
TEST(FlowTracker, IdsAreDenseFromOne) {
  FlowTracker t;
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_EQ(t.find(1), nullptr);
  for (std::uint64_t want = 1; want <= 5; ++want) {
    const auto id = t.next_flow_id();
    EXPECT_EQ(id, want);
    const Flow& stored = t.register_flow(make_flow(id, 1'000 * static_cast<std::int64_t>(id)));
    EXPECT_EQ(stored.id, id);
    EXPECT_EQ(t.registered(), want);
  }
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_EQ(t.find(t.registered() + 1), nullptr);
  for (std::uint64_t id = 1; id <= t.registered(); ++id) {
    ASSERT_NE(t.find(id), nullptr);
    EXPECT_EQ(t.find(id)->id, id);
    EXPECT_EQ(t.find(id)->size_bytes, 1'000 * static_cast<std::int64_t>(id));
  }
}

TEST(FlowTrackerDeathTest, OutOfOrderIdAborts) {
  FlowTracker t;
  t.register_flow(make_flow(t.next_flow_id(), 100));
  EXPECT_DEATH(t.register_flow(make_flow(3, 100)), "registered out of order");
}

}  // namespace
}  // namespace opera::transport
