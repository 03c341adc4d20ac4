#include "net/queue.h"

#include <gtest/gtest.h>

namespace opera::net {
namespace {

PacketPtr data_packet(TrafficClass tclass, std::int32_t bytes, std::uint64_t seq = 0) {
  auto pkt = make_packet();
  pkt->type = PacketType::kData;
  pkt->tclass = tclass;
  pkt->size_bytes = bytes;
  pkt->seq = seq;
  return pkt;
}

PacketPtr control_packet(PacketType type) {
  auto pkt = make_packet();
  pkt->type = type;
  pkt->tclass = TrafficClass::kLowLatency;
  pkt->size_bytes = kHeaderBytes;
  return pkt;
}

TEST(PortQueue, PriorityOrder) {
  PortQueue q;
  ASSERT_EQ(q.enqueue(data_packet(TrafficClass::kBulk, 1500, 1)), EnqueueOutcome::kQueued);
  ASSERT_EQ(q.enqueue(data_packet(TrafficClass::kLowLatency, 1500, 2)),
            EnqueueOutcome::kQueued);
  ASSERT_EQ(q.enqueue(control_packet(PacketType::kAck)), EnqueueOutcome::kQueued);
  // Dequeue order: control, low-latency, bulk.
  EXPECT_EQ(q.dequeue()->type, PacketType::kAck);
  EXPECT_EQ(q.dequeue()->seq, 2u);
  EXPECT_EQ(q.dequeue()->seq, 1u);
  EXPECT_EQ(q.dequeue(), nullptr);
}

TEST(PortQueue, LowLatencyTrimsWhenFull) {
  PortQueue::Config cfg;
  cfg.low_latency_capacity_bytes = 3000;  // two full packets
  PortQueue q(cfg);
  EXPECT_EQ(q.enqueue(data_packet(TrafficClass::kLowLatency, 1500, 0)),
            EnqueueOutcome::kQueued);
  EXPECT_EQ(q.enqueue(data_packet(TrafficClass::kLowLatency, 1500, 1)),
            EnqueueOutcome::kQueued);
  EXPECT_EQ(q.enqueue(data_packet(TrafficClass::kLowLatency, 1500, 2)),
            EnqueueOutcome::kTrimmed);
  EXPECT_EQ(q.trims(), 1u);
  // The trimmed header is in the control band: dequeued first, as a header.
  const auto first = q.dequeue();
  EXPECT_EQ(first->type, PacketType::kHeader);
  EXPECT_EQ(first->seq, 2u);
  EXPECT_EQ(first->size_bytes, kHeaderBytes);
}

TEST(PortQueue, TrimDisabledDrops) {
  PortQueue::Config cfg;
  cfg.low_latency_capacity_bytes = 1500;
  cfg.trim_low_latency = false;
  PortQueue q(cfg);
  EXPECT_EQ(q.enqueue(data_packet(TrafficClass::kLowLatency, 1500)), EnqueueOutcome::kQueued);
  EXPECT_EQ(q.enqueue(data_packet(TrafficClass::kLowLatency, 1500)), EnqueueOutcome::kDropped);
  EXPECT_EQ(q.drops(), 1u);
}

TEST(PortQueue, BulkDropInvokesHandler) {
  PortQueue::Config cfg;
  cfg.bulk_capacity_bytes = 1500;
  PortQueue q(cfg);
  std::uint64_t dropped_seq = 0;
  q.set_bulk_drop_handler([&](const Packet& pkt) { dropped_seq = pkt.seq; });
  EXPECT_EQ(q.enqueue(data_packet(TrafficClass::kBulk, 1500, 5)), EnqueueOutcome::kQueued);
  EXPECT_EQ(q.enqueue(data_packet(TrafficClass::kBulk, 1500, 6)), EnqueueOutcome::kDropped);
  EXPECT_EQ(dropped_seq, 6u);
}

TEST(PortQueue, BulkTrimWhenEnabled) {
  PortQueue::Config cfg;
  cfg.bulk_capacity_bytes = 1500;
  cfg.trim_bulk = true;
  PortQueue q(cfg);
  EXPECT_EQ(q.enqueue(data_packet(TrafficClass::kBulk, 1500, 1)), EnqueueOutcome::kQueued);
  EXPECT_EQ(q.enqueue(data_packet(TrafficClass::kBulk, 1500, 2)), EnqueueOutcome::kTrimmed);
  EXPECT_EQ(q.dequeue()->type, PacketType::kHeader);
}

TEST(PortQueue, ControlOverflowDrops) {
  PortQueue::Config cfg;
  cfg.control_capacity_bytes = kHeaderBytes;
  PortQueue q(cfg);
  EXPECT_EQ(q.enqueue(control_packet(PacketType::kPull)), EnqueueOutcome::kQueued);
  EXPECT_EQ(q.enqueue(control_packet(PacketType::kPull)), EnqueueOutcome::kDropped);
}

TEST(PortQueue, ByteAccounting) {
  PortQueue q;
  (void)q.enqueue(data_packet(TrafficClass::kLowLatency, 1500));
  (void)q.enqueue(data_packet(TrafficClass::kBulk, 700));
  (void)q.enqueue(control_packet(PacketType::kAck));
  EXPECT_EQ(q.low_latency_bytes(), 1500);
  EXPECT_EQ(q.bulk_bytes(), 700);
  EXPECT_EQ(q.control_bytes(), kHeaderBytes);
  EXPECT_EQ(q.total_bytes(), 1500 + 700 + kHeaderBytes);
  (void)q.dequeue();
  EXPECT_EQ(q.control_bytes(), 0);
}

TEST(PortQueue, FlushReportsBulk) {
  PortQueue q;
  (void)q.enqueue(data_packet(TrafficClass::kBulk, 1500, 1));
  (void)q.enqueue(data_packet(TrafficClass::kBulk, 1500, 2));
  (void)q.enqueue(data_packet(TrafficClass::kLowLatency, 1500, 3));
  std::vector<std::uint64_t> flushed;
  q.flush([&](const Packet& pkt) { flushed.push_back(pkt.seq); });
  EXPECT_EQ(flushed, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_bytes(), 0);
}

TEST(PortQueue, TrimmedHeaderKeepsMetadata) {
  PortQueue::Config cfg;
  cfg.low_latency_capacity_bytes = 0;
  PortQueue q(cfg);
  auto pkt = data_packet(TrafficClass::kLowLatency, 1500, 77);
  pkt->flow_id = 123;
  pkt->dst_host = 5;
  (void)q.enqueue(std::move(pkt));
  const auto header = q.dequeue();
  ASSERT_NE(header, nullptr);
  EXPECT_EQ(header->flow_id, 123u);
  EXPECT_EQ(header->seq, 77u);
  EXPECT_EQ(header->dst_host, 5);
}

TEST(PortQueue, AdmitsExactlyWhatEnqueueQueues) {
  // OutPort's cut-through relies on admits() naming exactly the packets
  // enqueue() would queue untouched, in every band, up to and past full.
  PortQueue::Config cfg;
  cfg.control_capacity_bytes = 256;
  cfg.low_latency_capacity_bytes = 3000;
  cfg.bulk_capacity_bytes = 4500;
  PortQueue q(cfg);
  for (int i = 0; i < 36; ++i) {
    PacketPtr pkt = i % 3 == 0   ? control_packet(PacketType::kPull)
                    : i % 3 == 1 ? data_packet(TrafficClass::kLowLatency, 1000)
                                 : data_packet(TrafficClass::kBulk, 1500);
    const bool admitted = q.admits(*pkt);
    EXPECT_EQ(admitted, q.enqueue(std::move(pkt)) == EnqueueOutcome::kQueued) << i;
  }
}

}  // namespace
}  // namespace opera::net
