// Packet switch with pluggable forwarding. Each fabric installs a Router;
// the switch mechanically moves packets between ports and keeps drop
// statistics. This mirrors the paper's P4 ToR (§4.3): the forwarding
// table is consulted per packet based on class and the current network
// configuration.
#pragma once

#include <cstdint>

#include "net/node.h"
#include "net/packet.h"

namespace opera::net {

class Switch;

// A fabric's forwarding rule for the switches it is installed on: one
// direct (virtual) call per hop.
class Router {
 public:
  // route()'s verdicts besides an output port.
  static constexpr int kNoRoute = -1;   // dropped; no_route() runs
  static constexpr int kConsumed = -2;  // route() moved the packet out

  virtual ~Router() = default;

  // The output port for `pkt` at `sw`, kNoRoute, or kConsumed after
  // taking the packet (Opera ToRs absorb VLB relay traffic into the rotor
  // relay buffer this way, before forwarding).
  virtual int route(Switch& sw, PacketPtr& pkt) = 0;

  // Runs for a packet route() had no route for (e.g. a bulk packet whose
  // direct circuit just retargeted) — Opera ToRs NACK the source.
  virtual void no_route(Switch& sw, const Packet& pkt) {
    (void)sw;
    (void)pkt;
  }
};

class Switch : public Node {
 public:
  Switch(sim::ShardContext& ctx, std::string name, std::int32_t id)
      : Node(ctx, std::move(name)), id_(id) {}

  [[nodiscard]] std::int32_t id() const { return id_; }

  // `router` must outlive every packet this switch receives.
  void set_router(Router* router) { router_ = router; }

  void receive(PacketPtr pkt, int in_port) override {
    (void)in_port;
    ++pkt->hops;
    const int out = router_->route(*this, pkt);
    if (out >= 0) {
      port(out).send(std::move(pkt));
    } else if (out == Router::kNoRoute) {
      ++forward_drops_;
      router_->no_route(*this, *pkt);
    }
  }

  [[nodiscard]] std::uint64_t forward_drops() const { return forward_drops_; }

  // Checkpoint hook: drop history plus every output port in index order
  // (ids, never pointers — the order must be partition-independent).
  void fingerprint(sim::Fingerprint& fp) const {
    fp.mix_i64(id_);
    fp.mix_u64(forward_drops_);
    for (int p = 0; p < num_ports(); ++p) port(p).fingerprint(fp);
  }

 private:
  std::int32_t id_;
  Router* router_ = nullptr;
  std::uint64_t forward_drops_ = 0;
};

}  // namespace opera::net
