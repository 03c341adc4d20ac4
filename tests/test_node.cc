#include "net/node.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "net/host.h"
#include "net/switch.h"

namespace opera::net {
namespace {

PacketPtr data_packet(std::int32_t bytes, std::uint64_t flow = 1) {
  auto pkt = make_packet();
  pkt->type = PacketType::kData;
  pkt->tclass = TrafficClass::kLowLatency;
  pkt->size_bytes = bytes;
  pkt->flow_id = flow;
  return pkt;
}

// Test node that records arrivals.
class RecorderNode : public Node {
 public:
  explicit RecorderNode(sim::ShardContext& ctx) : Node(ctx, "recorder") {}
  void receive(PacketPtr pkt, int in_port) override {
    arrivals.emplace_back(sim().now(), std::move(pkt));
    in_ports.push_back(in_port);
  }
  std::vector<std::pair<sim::Time, PacketPtr>> arrivals;
  std::vector<int> in_ports;
};

TEST(OutPort, SerializationPlusPropagation) {
  sim::Simulator sim;
  sim::ShardContext ctx(sim);
  RecorderNode src(ctx);
  RecorderNode dst(ctx);
  src.add_port(10e9, sim::Time::ns(500), PortQueue::Config{});
  src.port(0).connect(&dst, 3);
  src.port(0).send(data_packet(1500));
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), 1u);
  // 1500 B at 10 Gb/s = 1.2 us, + 500 ns propagation.
  EXPECT_DOUBLE_EQ(dst.arrivals[0].first.to_us(), 1.7);
  EXPECT_EQ(dst.in_ports[0], 3);
}

TEST(OutPort, BackToBackPacketsSerialize) {
  sim::Simulator sim;
  sim::ShardContext ctx(sim);
  RecorderNode src(ctx);
  RecorderNode dst(ctx);
  src.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  src.port(0).connect(&dst, 0);
  src.port(0).send(data_packet(1500));
  src.port(0).send(data_packet(1500));
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(dst.arrivals[0].first.to_us(), 1.2);
  EXPECT_DOUBLE_EQ(dst.arrivals[1].first.to_us(), 2.4);
}

TEST(OutPort, DisabledPortDropsSends) {
  sim::Simulator sim;
  sim::ShardContext ctx(sim);
  RecorderNode src(ctx);
  RecorderNode dst(ctx);
  src.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  src.port(0).connect(&dst, 0);
  src.port(0).set_enabled(false);
  EXPECT_EQ(src.port(0).send(data_packet(1500)), EnqueueOutcome::kDropped);
  sim.run();
  EXPECT_TRUE(dst.arrivals.empty());
}

TEST(OutPort, ReEnableDrainsQueue) {
  sim::Simulator sim;
  sim::ShardContext ctx(sim);
  RecorderNode src(ctx);
  RecorderNode dst(ctx);
  src.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  src.port(0).connect(&dst, 0);
  src.port(0).send(data_packet(1500));
  src.port(0).set_enabled(false);  // in-flight packet still delivers
  src.port(0).send(data_packet(1500));
  sim.run_until(sim::Time::ms(1));
  EXPECT_EQ(dst.arrivals.size(), 1u);
  src.port(0).set_enabled(true);
  // The packet queued before enable... was dropped at send time; queue empty.
  sim.run_until(sim::Time::ms(2));
  EXPECT_EQ(dst.arrivals.size(), 1u);
}

TEST(OutPort, RetargetMidFlightDeliversToOriginalPeer) {
  sim::Simulator sim;
  sim::ShardContext ctx(sim);
  RecorderNode src(ctx);
  RecorderNode a(ctx);
  RecorderNode b(ctx);
  src.add_port(10e9, sim::Time::us(10), PortQueue::Config{});
  src.port(0).connect(&a, 0);
  src.port(0).send(data_packet(1500));
  // Retarget while the packet is on the wire: bits go to the old peer.
  sim.run_until(sim::Time::us(2));
  src.port(0).connect(&b, 0);
  sim.run();
  EXPECT_EQ(a.arrivals.size(), 1u);
  EXPECT_TRUE(b.arrivals.empty());
  // The next send goes to the new peer.
  src.port(0).send(data_packet(1500));
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 1u);
}

// Router whose verdict is a function of the packet; counts no_route().
template <typename F>
class FnRouter final : public Router {
 public:
  explicit FnRouter(F f) : f_(std::move(f)) {}
  int route(Switch&, PacketPtr& pkt) override { return f_(pkt); }
  void no_route(Switch&, const Packet&) override { ++no_routes; }
  int no_routes = 0;

 private:
  F f_;
};

TEST(Switch, ForwardsByFunction) {
  sim::Simulator sim;
  sim::ShardContext ctx(sim);
  Switch sw(ctx, "sw", 0);
  RecorderNode out0(ctx);
  RecorderNode out1(ctx);
  sw.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  sw.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  sw.port(0).connect(&out0, 0);
  sw.port(1).connect(&out1, 0);
  FnRouter router([](PacketPtr& pkt) { return pkt->flow_id == 1 ? 0 : 1; });
  sw.set_router(&router);
  sw.receive(data_packet(1500, 1), 0);
  sw.receive(data_packet(1500, 2), 0);
  sim.run();
  EXPECT_EQ(out0.arrivals.size(), 1u);
  EXPECT_EQ(out1.arrivals.size(), 1u);
  // Hop counter incremented.
  EXPECT_EQ(out0.arrivals[0].second->hops, 1);
}

TEST(Switch, DropHookFires) {
  sim::Simulator sim;
  sim::ShardContext ctx(sim);
  Switch sw(ctx, "sw", 0);
  FnRouter router([](PacketPtr&) { return Router::kNoRoute; });
  sw.set_router(&router);
  sw.receive(data_packet(1500), 0);
  EXPECT_EQ(router.no_routes, 1);
  EXPECT_EQ(sw.forward_drops(), 1u);
}

TEST(Switch, InterceptConsumes) {
  sim::Simulator sim;
  sim::ShardContext ctx(sim);
  Switch sw(ctx, "sw", 0);
  PacketPtr captured;
  FnRouter router([&](PacketPtr& pkt) {
    captured = std::move(pkt);
    return Router::kConsumed;
  });
  sw.set_router(&router);
  sw.receive(data_packet(1500), 2);
  ASSERT_NE(captured, nullptr);
  // A consumed packet is neither forwarded nor counted as a drop.
  EXPECT_EQ(router.no_routes, 0);
  EXPECT_EQ(sw.forward_drops(), 0u);
}

// Endpoint that counts its packets, and default handler that counts the
// unclaimed ones.
struct CountingEndpoint final : Endpoint {
  void on_packet(PacketPtr) override { ++hits; }
  int hits = 0;
};
struct CountingDefault final : DefaultHandler {
  void on_unclaimed(Host&, PacketPtr) override { ++hits; }
  int hits = 0;
};

TEST(Host, DispatchesByFlowAndDefault) {
  sim::Simulator sim;
  sim::ShardContext ctx(sim);
  Host host(ctx, "h", 0, 0);
  host.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  CountingEndpoint flow;
  CountingDefault fallback;
  host.register_flow(5, &flow);
  host.set_default_handler(&fallback);
  host.receive(data_packet(1500, 5), 0);
  host.receive(data_packet(1500, 6), 0);
  EXPECT_EQ(flow.hits, 1);
  EXPECT_EQ(fallback.hits, 1);
  host.unregister_flow(5);
  host.receive(data_packet(1500, 5), 0);
  EXPECT_EQ(fallback.hits, 2);
}

// An endpoint that, on its first packet, registers enough flows on its own
// host to grow the flow table several times over, then unregisters its
// own flow — all inside its dispatch. The table holds pointers, so the
// running endpoint is never moved; every later packet must still reach
// the endpoint registered for its flow.
TEST(Host, RegistrationsDuringDispatchGrowTheTable) {
  sim::Simulator sim;
  sim::ShardContext ctx(sim);
  Host host(ctx, "h", 0, 0);
  host.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  static constexpr std::uint64_t kSelf = 7;
  static constexpr int kSpawned = 300;
  std::vector<CountingEndpoint> spawned(kSpawned);

  struct Spawner final : Endpoint {
    Host* host = nullptr;
    std::vector<CountingEndpoint>* spawned = nullptr;
    int hits = 0;
    void on_packet(PacketPtr pkt) override {
      ++hits;
      EXPECT_EQ(pkt->flow_id, kSelf);
      // Strided ids, as a workload that deals flows round-robin gives a host.
      for (int i = 0; i < kSpawned; ++i) {
        host->register_flow(1000 + 64 * static_cast<std::uint64_t>(i),
                            &(*spawned)[static_cast<std::size_t>(i)]);
      }
      host->unregister_flow(kSelf);
      ++hits;  // still alive and addressable after the table grew
    }
  } spawner;
  spawner.host = &host;
  spawner.spawned = &spawned;
  CountingDefault fallback;
  host.set_default_handler(&fallback);
  host.register_flow(kSelf, &spawner);

  host.receive(data_packet(1500, kSelf), 0);
  EXPECT_EQ(spawner.hits, 2);
  // Its flow is gone: the next packet falls through to the default.
  host.receive(data_packet(1500, kSelf), 0);
  EXPECT_EQ(spawner.hits, 2);
  EXPECT_EQ(fallback.hits, 1);
  for (int i = 0; i < kSpawned; ++i) {
    host.receive(data_packet(1500, 1000 + 64 * static_cast<std::uint64_t>(i)), 0);
  }
  for (int i = 0; i < kSpawned; ++i) {
    EXPECT_EQ(spawned[static_cast<std::size_t>(i)].hits, 1) << i;
  }
  // Unregister every other flow (backward-shift deletion keeps the rest
  // findable), then send to all of them once more.
  for (int i = 0; i < kSpawned; i += 2) {
    host.unregister_flow(1000 + 64 * static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < kSpawned; ++i) {
    host.receive(data_packet(1500, 1000 + 64 * static_cast<std::uint64_t>(i)), 0);
  }
  for (int i = 0; i < kSpawned; ++i) {
    EXPECT_EQ(spawned[static_cast<std::size_t>(i)].hits, i % 2 == 0 ? 1 : 2) << i;
  }
  EXPECT_EQ(fallback.hits, 1 + kSpawned / 2);
}

TEST(Host, PacerSpacesControl) {
  sim::Simulator sim;
  sim::ShardContext ctx(sim);
  Host host(ctx, "h", 0, 0);
  RecorderNode peer(ctx);
  host.add_port(10e9, sim::Time::zero(), PortQueue::Config{});
  host.uplink().connect(&peer, 0);
  for (int i = 0; i < 3; ++i) {
    auto pull = make_packet();
    pull->type = PacketType::kPull;
    pull->size_bytes = kHeaderBytes;
    host.pace_control(std::move(pull));
  }
  sim.run();
  ASSERT_EQ(peer.arrivals.size(), 3u);
  // Spaced at >= MTU serialization time (1.2 us at 10 Gb/s).
  const double gap1 =
      peer.arrivals[1].first.to_us() - peer.arrivals[0].first.to_us();
  const double gap2 =
      peer.arrivals[2].first.to_us() - peer.arrivals[1].first.to_us();
  EXPECT_GE(gap1, 1.19);
  EXPECT_GE(gap2, 1.19);
}

// The serializer and pacer as they were before their done events went
// lazy: every transmission and every paced emission schedules its done
// event. Test-only reference for LazyWakesMatchEagerReference; `ties_*`
// count sends at exactly a pending done event's time, by whether it had
// fired yet.
struct EagerPort {
  sim::ShardContext& ctx;
  Node* peer;
  PortQueue queue;
  bool busy = false;
  bool enabled = true;
  bool lossy = false;
  sim::Time done_at = sim::Time::ps(-1);
  int ties_waited = 0;
  int ties_started = 0;

  void send(PacketPtr pkt) {
    if (ctx.now() == done_at) ++(busy ? ties_waited : ties_started);
    if (enabled && queue.enqueue(std::move(pkt)) != EnqueueOutcome::kDropped) pump();
  }
  void set_enabled(bool on) {
    enabled = on;
    if (on) pump();
  }
  void pump() {
    if (busy || !enabled || queue.empty()) return;
    PacketPtr pkt = queue.dequeue();
    busy = true;
    const sim::Time serialization = sim::Time::transmission(pkt->size_bytes, 10e9);
    if (!lossy) {
      Node* to = peer;
      ctx.post(to->ctx(), ctx.now() + serialization + sim::Time::ns(100),
               [to, pkt = std::move(pkt)]() mutable { to->receive(std::move(pkt), 0); });
    }
    done_at = ctx.now() + serialization;
    ctx.schedule_in(serialization, [this] {
      busy = false;
      pump();
    });
  }
};

struct EagerPacer {
  EagerPort& port;
  PacketRing queue;
  bool busy = false;

  void pace(PacketPtr pkt) {
    queue.push_back(std::move(pkt));
    kick();
  }
  void kick() {
    if (busy || queue.empty()) return;
    busy = true;
    port.send(queue.pop_front());
    port.ctx.schedule_in(sim::Time::transmission(kMtuBytes, 10e9), [this] {
      busy = false;
      kick();
    });
  }
};

// One arrival: its time, its order key (through the first key it derives,
// a pure function of its own), which peer, and which packet.
struct Arrival {
  std::int64_t at_ps;
  std::uint64_t key;
  int peer;
  std::uint64_t seq;
  bool operator==(const Arrival&) const = default;
};

class TapNode : public Node {
 public:
  TapNode(sim::ShardContext& ctx, int id, std::vector<Arrival>& log)
      : Node(ctx, "tap"), id_(id), log_(log) {}
  void receive(PacketPtr pkt, int) override {
    log_.push_back({sim().now().picoseconds(), sim().derive_key(), id_, pkt->seq});
  }

 private:
  int id_;
  std::vector<Arrival>& log_;
};

enum class Op { kSend, kPace, kBlink, kGray, kRetarget };
struct Action {
  sim::Time at;
  Op op;
  bool from_child;  // acts in a zero-delay child event: a hashed order key
  std::int32_t bytes;
  sim::Time hold;  // kBlink: disabled for this long; kGray: lossy
};

struct ScheduleRun {
  std::vector<Arrival> arrivals;
  std::uint64_t events = 0;
  int ties_waited = 0;
  int ties_started = 0;
};

// Plays `script` against the lazy OutPort + Host pacer, or against the
// eager reference, in causal-key mode.
ScheduleRun play(const std::vector<Action>& script, bool lazy) {
  sim::Simulator sim;
  sim.set_key_mode(sim::Simulator::KeyMode::kCausal);
  sim::ShardContext ctx(sim);
  ScheduleRun run;
  TapNode a(ctx, 0, run.arrivals);
  TapNode b(ctx, 1, run.arrivals);
  Host host(ctx, "h", 0, 0);
  host.add_port(10e9, sim::Time::ns(100), PortQueue::Config{});
  OutPort& port = host.uplink();
  port.connect(&a, 0);
  EagerPort eager{ctx, &a, PortQueue{}};
  EagerPacer pacer{eager, {}};
  bool at_b = false;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Action act = script[i];
    auto apply = [&, act, i] {
      switch (act.op) {
        case Op::kSend:
        case Op::kPace: {
          PacketPtr pkt = data_packet(act.bytes);
          pkt->seq = i;
          if (act.op == Op::kPace) {
            lazy ? host.pace_control(std::move(pkt)) : pacer.pace(std::move(pkt));
          } else if (lazy) {
            port.send(std::move(pkt));
          } else {
            eager.send(std::move(pkt));
          }
          break;
        }
        case Op::kBlink:
          lazy ? port.set_enabled(false) : eager.set_enabled(false);
          sim.schedule_in(act.hold, [&] { lazy ? port.set_enabled(true) : eager.set_enabled(true); });
          break;
        case Op::kGray:
          lazy ? port.set_gray(1.0, sim::Time::zero(), 7) : void(eager.lossy = true);
          sim.schedule_in(act.hold, [&] { lazy ? port.clear_gray() : void(eager.lossy = false); });
          break;
        case Op::kRetarget:
          at_b = !at_b;
          lazy ? port.connect(at_b ? &b : &a, 0) : void(eager.peer = at_b ? &b : &a);
          break;
      }
    };
    sim.schedule_at(act.at, [&sim, act, apply]() mutable {
      if (act.from_child) {
        sim.schedule_in(sim::Time::zero(), std::move(apply));
      } else {
        apply();
      }
    });
  }
  sim.run_until(sim::Time::ms(1));
  run.events = sim.events_executed();
  run.ties_waited = eager.ties_waited;
  run.ties_started = eager.ties_started;
  return run;
}

TEST(OutPort, LazyWakesMatchEagerReference) {
  // Actions on a 600 ns grid, with serialization times of 1.2 us, 600 ns
  // and 51.2 ns and a 1.2 us pacer interval: many sends land exactly on a
  // done event's time, some ordered before it (root keys, or a hash below
  // it) and some after. Blinks disable the port for 0.3-1.2 us, often
  // re-enabling it mid-serialization; gray loss keeps the serializer busy
  // with no arrival; retargets switch the peer.
  std::mt19937_64 rng(5);
  std::vector<Action> script;
  constexpr std::int32_t kSizes[] = {1500, 750, 64};
  for (int i = 0; i < 400; ++i) {
    const auto roll = rng() % 100;
    const Op op = roll < 50   ? Op::kSend
                  : roll < 75 ? Op::kPace
                  : roll < 83 ? Op::kBlink
                  : roll < 90 ? Op::kGray
                              : Op::kRetarget;
    script.push_back({sim::Time::ns(600 * static_cast<std::int64_t>(rng() % 600)), op,
                      rng() % 4 != 0, kSizes[rng() % 3],
                      sim::Time::ns(300 * static_cast<std::int64_t>(1 + rng() % 4))});
  }
  const ScheduleRun eager = play(script, false);
  const ScheduleRun lazy = play(script, true);
  EXPECT_GT(eager.ties_waited, 0);
  EXPECT_GT(eager.ties_started, 0);
  ASSERT_GT(eager.arrivals.size(), 100u);
  EXPECT_EQ(lazy.arrivals, eager.arrivals);
  EXPECT_LT(lazy.events, eager.events);
}

}  // namespace
}  // namespace opera::net
