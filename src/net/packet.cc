#include "net/packet.h"

#include <vector>

namespace opera::net {

namespace {

// Thread-local packet free list. It keeps at most as many packets as this
// thread has itself allocated: on one thread that never binds (the list
// grows to the peak in-flight count, then every make_packet() is a pop +
// reset), but in a sharded run a shard that frees more packets than it
// makes — on a pinned thread, for the whole run — would otherwise hoard
// them while the shards feeding it keep allocating. Its surplus goes back
// to the heap, where the allocating threads reuse it.
struct PacketPool {
  std::vector<Packet*> free_list;
  std::size_t allocated = 0;
  ~PacketPool() {
    for (Packet* p : free_list) delete p;
  }
};
thread_local PacketPool g_packet_pool;

}  // namespace

void PacketDeleter::operator()(Packet* p) const noexcept {
  if (g_packet_pool.free_list.size() < g_packet_pool.allocated) {
    g_packet_pool.free_list.push_back(p);
  } else {
    delete p;
  }
}

PacketPtr make_packet() {
  auto& pool = g_packet_pool.free_list;
  if (pool.empty()) {
    ++g_packet_pool.allocated;
    return PacketPtr{new Packet};
  }
  Packet* p = pool.back();
  pool.pop_back();
  *p = Packet{};
  return PacketPtr{p};
}

PacketPtr make_control(const Packet& in_response_to, PacketType type) {
  auto pkt = make_packet();
  pkt->flow_id = in_response_to.flow_id;
  pkt->seq = in_response_to.seq;
  pkt->src_host = in_response_to.dst_host;
  pkt->dst_host = in_response_to.src_host;
  pkt->src_rack = in_response_to.dst_rack;
  pkt->dst_rack = in_response_to.src_rack;
  pkt->size_bytes = kHeaderBytes;
  // Control packets ride the low-latency class so credits and loss
  // notifications are never stuck behind bulk data.
  pkt->tclass = TrafficClass::kLowLatency;
  pkt->type = type;
  return pkt;
}

}  // namespace opera::net
