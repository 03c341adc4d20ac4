#include "net/queue.h"

#include <utility>

namespace opera::net {

EnqueueOutcome PortQueue::enqueue(PacketPtr pkt) {
  const bool fits = admits(*pkt);
  const bool is_control = pkt->type != PacketType::kData;
  if (is_control) {
    // Control and trimmed headers: tiny packets, drop only under pathological
    // overload.
    if (!fits) {
      ++drops_;
      return EnqueueOutcome::kDropped;
    }
    control_bytes_ += pkt->size_bytes;
    control_.push_back(std::move(pkt));
    return EnqueueOutcome::kQueued;
  }

  if (pkt->tclass == TrafficClass::kLowLatency) {
    if (!fits) {
      if (config_.trim_low_latency &&
          control_bytes_ + kHeaderBytes <= config_.control_capacity_bytes) {
        // NDP trim: drop the payload, forward the header so the receiver
        // can NACK immediately (no RTO).
        pkt->type = PacketType::kHeader;
        pkt->size_bytes = kHeaderBytes;
        control_bytes_ += kHeaderBytes;
        control_.push_back(std::move(pkt));
        ++trims_;
        return EnqueueOutcome::kTrimmed;
      }
      ++drops_;
      return EnqueueOutcome::kDropped;
    }
    low_latency_bytes_ += pkt->size_bytes;
    low_latency_.push_back(std::move(pkt));
    return EnqueueOutcome::kQueued;
  }

  // Bulk.
  if (!fits) {
    if (config_.trim_bulk &&
        control_bytes_ + kHeaderBytes <= config_.control_capacity_bytes) {
      pkt->type = PacketType::kHeader;
      pkt->size_bytes = kHeaderBytes;
      control_bytes_ += kHeaderBytes;
      control_.push_back(std::move(pkt));
      ++trims_;
      return EnqueueOutcome::kTrimmed;
    }
    ++drops_;
    if (on_bulk_drop_) on_bulk_drop_(*pkt);
    return EnqueueOutcome::kDropped;
  }
  bulk_bytes_ += pkt->size_bytes;
  bulk_.push_back(std::move(pkt));
  return EnqueueOutcome::kQueued;
}

PacketPtr PortQueue::dequeue() {
  if (!control_.empty()) {
    PacketPtr pkt = control_.pop_front();
    control_bytes_ -= pkt->size_bytes;
    return pkt;
  }
  if (!low_latency_.empty()) {
    PacketPtr pkt = low_latency_.pop_front();
    low_latency_bytes_ -= pkt->size_bytes;
    return pkt;
  }
  if (!bulk_.empty()) {
    PacketPtr pkt = bulk_.pop_front();
    bulk_bytes_ -= pkt->size_bytes;
    return pkt;
  }
  return nullptr;
}

void PortQueue::flush(const DropHandler& handler) {
  if (handler) {
    bulk_.for_each([&handler](const PacketPtr& pkt) { handler(*pkt); });
  }
  control_.clear();
  low_latency_.clear();
  bulk_.clear();
  control_bytes_ = low_latency_bytes_ = bulk_bytes_ = 0;
}

}  // namespace opera::net
