// core::PacketFabric — the execution plumbing every packet-level fabric
// shares: the rotor fabric (OperaNetwork, which runs both Opera and
// RotorNet), folded Clos and the static expander. Each fabric class keeps
// only its own structure, forwarding and slice machinery.
//
// All run on one execution model: a sim::ShardedSimulator whose
// domains are racks (a ToR and its hosts; fabrics place any other switch
// explicitly), with conservative lookahead = the link propagation delay,
// the minimum cross-domain event latency. threads == 1 collapses to the
// classic single-queue loop. The base owns:
//   * the engine, its shard count resolved from the config or
//     $OPERA_TEST_THREADS;
//   * the FlowTracker, one lane per shard, merged at every barrier;
//   * the switches and hosts, each created in its shard's domain, host
//     NICs wired to their ToR;
//   * flow submission: classification (bulk at or above the fabric's
//     bulk threshold), registration, and a start seeded onto the source
//     host's shard (ShardedSimulator::seed), so equal-time starts order
//     identically under any shard count;
//   * transport endpoints in per-shard pools: NDP sources and sinks, plus,
//     on rotor fabrics, per-host RotorLB agents and bulk sinks;
//   * the partition-invariant fingerprint of every port.
// Barrier-aligned global work (slice boundaries, failure injection,
// progress ticks) goes on sim(), the coordinator queue.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/network.h"
#include "net/host.h"
#include "net/switch.h"
#include "sim/sharded.h"
#include "transport/flow.h"
#include "transport/ndp.h"
#include "transport/rotorlb.h"

namespace opera::core {

class PacketFabric : public Network {
 public:
  ~PacketFabric() override;

  // Classifies the flow (bulk at or above Shape::bulk_threshold_bytes,
  // unless `force` names a class), registers it, and seeds its start onto
  // the source host's shard. Returns the flow id.
  std::uint64_t submit_flow(
      std::int32_t src_host, std::int32_t dst_host, std::int64_t size_bytes,
      sim::Time start,
      std::optional<net::TrafficClass> force = std::nullopt) final;

  void run_until(sim::Time t) final { engine_.run_until(t); }

  // The coordinator simulator: its clock is the committed global time and
  // its queue holds barrier-aligned global events. Test probes scheduled
  // here run between epochs; packet events live on the shard(s).
  [[nodiscard]] sim::Simulator& sim() final { return engine_.global(); }
  [[nodiscard]] const sim::Simulator& sim() const final { return engine_.global(); }
  [[nodiscard]] sim::ShardedSimulator& engine() { return engine_; }
  [[nodiscard]] std::uint64_t events_executed() const final {
    return engine_.events_executed();
  }
  // Resolved shard count (config threads clamped to [1, num_racks]).
  [[nodiscard]] int num_shards() const final { return engine_.num_shards(); }
  [[nodiscard]] int shard_of_rack(std::int32_t rack) const {
    return static_cast<int>(static_cast<std::int64_t>(rack) * engine_.num_shards() /
                            num_racks_);
  }

  [[nodiscard]] transport::FlowTracker& tracker() final { return tracker_; }
  [[nodiscard]] const transport::FlowTracker& tracker() const final { return tracker_; }
  [[nodiscard]] std::int32_t num_hosts() const final {
    return static_cast<std::int32_t>(hosts_.size());
  }
  [[nodiscard]] std::int32_t num_racks() const final { return num_racks_; }
  [[nodiscard]] std::int32_t rack_of_host(std::int32_t host) const final {
    return host / hosts_per_rack_;
  }
  [[nodiscard]] net::Host& host(std::int32_t id) {
    return *hosts_[static_cast<std::size_t>(id)];
  }

  // Checkpoint hook: the base digest plus every switch (in creation order)
  // and every host NIC (in host order); both orders are partition-
  // invariant. Per-shard endpoint pools are deliberately excluded.
  void fingerprint(sim::Fingerprint& fp) const override;

 protected:
  struct Shape {
    std::int32_t num_racks = 0;
    int hosts_per_rack = 0;
    LinkParams link;
    // Unforced flows at or above this size are bulk. Rotor fabrics without
    // a packet core pass 0: every flow waits for circuits.
    std::int64_t bulk_threshold_bytes = 0;
    int threads = 0;  // 0 = auto ($OPERA_TEST_THREADS, else 1)
    // Rotor fabrics: bulk flows ride RotorLB (per-host agents, bulk sinks)
    // and intra-rack flows always take the low-latency path. Static
    // fabrics run NDP for both classes.
    bool rotorlb_bulk = false;
  };
  explicit PacketFabric(const Shape& shape);

  // Creates a switch in shard `shard`'s domain.
  net::Switch& add_switch(int shard, std::string name, std::int32_t id);
  // Creates rack `tor.id()`'s hosts in the rack's domain: host i's NIC
  // (queue `host_q`) and `tor` port i are wired to each other. Rotor
  // fabrics also get each host's RotorLB agent.
  void add_hosts(net::Switch& tor, const net::PortQueue::Config& host_q);

  [[nodiscard]] transport::RotorLbAgent& agent(std::int32_t host) {
    return *agents_[static_cast<std::size_t>(host)];
  }
  [[nodiscard]] const transport::RotorLbAgent& agent(std::int32_t host) const {
    return *agents_[static_cast<std::size_t>(host)];
  }

 private:
  // Host default handler: a packet no endpoint claimed. NACKs reach the
  // source's RotorLB agent; a flow's first data packet at its destination
  // creates the sink in the shard's pool.
  void on_unclaimed_packet(net::Host& h, net::PacketPtr pkt, int shard);

  std::int32_t num_racks_;
  int hosts_per_rack_;
  LinkParams link_;
  std::int64_t bulk_threshold_bytes_;
  bool rotorlb_bulk_;

  // Declared before the nodes so their ShardContext references outlive
  // them, and before the endpoints so pending timers outlive their owners.
  sim::ShardedSimulator engine_;
  transport::FlowTracker tracker_;
  std::vector<std::unique_ptr<net::Switch>> switches_;
  std::vector<std::unique_ptr<net::Host>> hosts_;
  std::vector<std::unique_ptr<transport::RotorLbAgent>> agents_;  // per host
  // Transport endpoints, owned per shard: they are created during shard
  // phases (flow starts, first-packet sink creation), so each shard
  // appends to its own pool.
  struct EndpointPool {
    std::vector<std::unique_ptr<transport::NdpSource>> ndp_sources;
    std::vector<std::unique_ptr<transport::NdpSink>> ndp_sinks;
    std::vector<std::unique_ptr<transport::RotorLbSink>> bulk_sinks;
  };
  std::vector<EndpointPool> endpoints_;  // [shard]
};

}  // namespace opera::core
