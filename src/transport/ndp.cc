#include "transport/ndp.h"

#include <cassert>

namespace opera::transport {

NdpSource::NdpSource(net::Host& host, const Flow& flow, FlowTracker& tracker)
    : host_(host), flow_(flow), tracker_(tracker) {
  acked_seq_.assign(flow_.total_packets(), false);
  host_.register_flow(flow_.id, this);
}

NdpSource::~NdpSource() {
  timer_.cancel();
  host_.unregister_flow(flow_.id);
}

void NdpSource::start() {
  const std::uint64_t window = std::min(kInitialWindowPackets, flow_.total_packets());
  for (std::uint64_t i = 0; i < window; ++i) send_next();
  arm_timer();
}

void NdpSource::send_seq(std::uint64_t seq) {
  auto pkt = net::make_packet();
  pkt->flow_id = flow_.id;
  pkt->seq = seq;
  pkt->src_host = flow_.src_host;
  pkt->dst_host = flow_.dst_host;
  pkt->src_rack = flow_.src_rack;
  pkt->dst_rack = flow_.dst_rack;
  pkt->size_bytes = flow_.wire_bytes(seq);
  pkt->tclass = flow_.tclass;
  pkt->type = net::PacketType::kData;
  pkt->enqueued_at = host_.sim().now();
  host_.uplink().send(std::move(pkt));
}

void NdpSource::send_next() {
  // Retransmissions first (most recent NACK first — it is the freshest
  // information about loss), then new data.
  while (!retransmit_.empty()) {
    const std::uint64_t seq = retransmit_.back();
    retransmit_.pop_back();
    if (acked_seq_[seq]) continue;  // raced with a late ACK
    send_seq(seq);
    return;
  }
  if (next_new_ < flow_.total_packets()) {
    send_seq(next_new_++);
  }
}

void NdpSource::on_packet(net::PacketPtr pkt) {
  switch (pkt->type) {
    case net::PacketType::kAck:
      if (!acked_seq_[pkt->seq]) {
        acked_seq_[pkt->seq] = true;
        ++acked_;
        if (complete()) {
          done_ = true;
          timer_.cancel();
        } else {
          arm_timer();
        }
      }
      break;
    case net::PacketType::kNack:
      if (!acked_seq_[pkt->seq]) retransmit_.push_back(pkt->seq);
      arm_timer();
      break;
    case net::PacketType::kPull:
      send_next();
      break;
    default:
      break;  // data addressed to a source: stray, ignore
  }
}

void NdpSource::arm_timer() {
  timer_.cancel();
  timer_ = host_.sim().schedule_in(kFallbackRto, [this] { on_timer(); });
}

void NdpSource::on_timer() {
  if (done_) return;
  // Control-packet loss fallback: resend the lowest unacked sequence.
  for (std::uint64_t seq = 0; seq < flow_.total_packets(); ++seq) {
    if (!acked_seq_[seq]) {
      send_seq(seq);
      break;
    }
  }
  arm_timer();
}

NdpSink::NdpSink(net::Host& host, const Flow& flow, FlowTracker& tracker)
    : host_(host), flow_(flow), tracker_(tracker) {
  seen_.assign(flow_.total_packets(), false);
}

NdpSink::~NdpSink() = default;

void NdpSink::on_packet(net::PacketPtr pkt) {
  if (pkt->type == net::PacketType::kData) {
    if (!seen_[pkt->seq]) {
      seen_[pkt->seq] = true;
      ++received_;
      tracker_.on_delivered(flow_.id, pkt->size_bytes - net::kHeaderBytes,
                            host_.sim().now());
    }
    // ACK immediately; PULL through the pacer (even for duplicates, to keep
    // the sender's self-clock running).
    host_.uplink().send(net::make_control(*pkt, net::PacketType::kAck));
    if (!complete()) {
      host_.pace_control(net::make_control(*pkt, net::PacketType::kPull));
    } else if (!completed_reported_) {
      completed_reported_ = true;
      tracker_.on_complete(flow_.id, host_.sim().now());
    }
    return;
  }
  if (pkt->type == net::PacketType::kHeader) {
    // Trimmed: NACK immediately so the source can retransmit, and PULL to
    // keep the window moving.
    host_.uplink().send(net::make_control(*pkt, net::PacketType::kNack));
    host_.pace_control(net::make_control(*pkt, net::PacketType::kPull));
  }
}

}  // namespace opera::transport
