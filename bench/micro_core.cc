// Microbenchmarks (google-benchmark) of the simulation substrate: event
// queue throughput, per-slice routing construction, one-factorization,
// circuit lookups and the fluid engine's per-slice rate allocation, queue
// operations, one forwarding hop, the shard epoch barrier, and end-to-end
// simulated-packet rate.
#include <benchmark/benchmark.h>

#include <functional>
#include <map>
#include <utility>

#include "core/fabric.h"
#include "core/opera_network.h"
#include "fluid/rotor_rate_lb.h"
#include "net/node.h"
#include "net/queue.h"
#include "sim/event_queue.h"
#include "sim/parallel.h"
#include "sim/rng.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "topo/one_factorization.h"
#include "topo/opera_topology.h"
#include "topo/slice_table_cache.h"

namespace {

using namespace opera;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    sim::Rng rng(1);
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(sim::Time::ps(static_cast<std::int64_t>(rng.next_u64() % 1'000'000)),
                 [] {});
    }
    while (!q.empty()) q.run_next();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1'000)->Arg(100'000);

// Arg ports serialize in lockstep: each hash-keyed event re-arms itself
// 1.2 us after it fires, so every timestamp holds an Arg-event run. This
// is the path the fabrics take (schedule_keyed with causal hash keys);
// BM_EventQueueScheduleRun's counter keys never tie out of order.
struct Lockstep {
  sim::EventQueue q;
  std::uint64_t fired = 0;
  explicit Lockstep(std::uint32_t ports) {
    for (std::uint32_t p = 0; p < ports; ++p) arm(p, sim::Time::ns(1200));
  }
  void arm(std::uint32_t port, sim::Time at) {
    q.schedule_keyed(at, sim::mix64((fired << 16) | port), [this, port, at] {
      ++fired;
      arm(port, at + sim::Time::ns(1200));
    });
  }
};

void BM_EventQueueLockstep(benchmark::State& state) {
  constexpr std::uint64_t kEvents = 200'000;
  for (auto _ : state) {
    Lockstep lockstep(static_cast<std::uint32_t>(state.range(0)));
    while (lockstep.fired < kEvents) lockstep.q.run_next();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kEvents));
}
BENCHMARK(BM_EventQueueLockstep)->Arg(64)->Arg(648)->Arg(4'096);

// One fixed seed: the sampler's restart count, and so its time, varies
// by orders of magnitude from seed to seed. Seed 1 is what OperaTopology's
// first realization draws with; Arg(432) is the k=24 scale.
void BM_OneFactorization(benchmark::State& state) {
  const auto n = static_cast<topo::Vertex>(state.range(0));
  for (auto _ : state) {
    sim::Rng rng(1);
    benchmark::DoNotOptimize(topo::random_factorization(n, rng));
  }
}
BENCHMARK(BM_OneFactorization)->Arg(16)->Arg(108)->Arg(432)->Unit(benchmark::kMillisecond);

// One slice table per iteration, cycling through the slices. Keep slices
// comfortably connected: u=4 at toy scale, u=6 beyond; Arg(432) is the
// opera_k24_websearch shape (u=12, 12 hosts per rack).
void BM_SliceRoutes(benchmark::State& state) {
  topo::OperaParams p;
  p.num_racks = static_cast<topo::Vertex>(state.range(0));
  p.num_switches = p.num_racks >= 32 ? 6 : 4;
  if (p.num_racks >= 432) p.num_switches = p.hosts_per_rack = 12;
  p.seed = 1;
  const topo::OperaTopology topo(p);
  int slice = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.slice_routes(slice));
    slice = (slice + 1) % topo.num_slices();
  }
}
BENCHMARK(BM_SliceRoutes)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(16)
    ->Arg(48)
    ->Arg(108)
    ->Arg(432);

// All N per-slice tables built through the parallel construction path the
// OperaNetwork constructor uses (sim::parallel_for over slices). Arg(108)
// is the paper scale; Arg(432) is the k=24 / 5184-host scale from the
// ROADMAP — tracked here so the scaling claim has a number attached.
void BM_SliceRoutesParallel(benchmark::State& state) {
  topo::OperaParams p;
  p.num_racks = static_cast<topo::Vertex>(state.range(0));
  p.num_switches = p.num_racks >= 432 ? 12 : 6;
  p.hosts_per_rack = p.num_switches;
  p.seed = 1;
  const topo::OperaTopology topo(p);
  for (auto _ : state) {
    std::vector<topo::EcmpTable> tables(static_cast<std::size_t>(topo.num_slices()));
    sim::parallel_for(tables.size(), [&](std::size_t s) {
      tables[s] = topo.slice_routes(static_cast<int>(s));
    });
    benchmark::DoNotOptimize(tables.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          topo.num_slices());
}
BENCHMARK(BM_SliceRoutesParallel)
    ->Unit(benchmark::kMillisecond)
    ->Arg(108)
    ->Arg(432)
    ->Iterations(1);

// A default-configured slice-table cache stepped through the rotation the
// way OperaNetwork drives it: prefetch(current slice) at every boundary,
// 2 x window() boundaries per iteration. Arg(108) is the paper scale
// (eager: boundaries build nothing); Arg(432) is k=24 (windowed: batched
// builds). Reports wall time and table builds per boundary.
void BM_SliceBoundaryPrefetch(benchmark::State& state) {
  topo::OperaParams p;
  p.num_racks = static_cast<topo::Vertex>(state.range(0));
  p.num_switches = p.num_racks >= 432 ? 12 : 6;
  p.hosts_per_rack = p.num_switches;
  p.seed = 1;
  const topo::OperaTopology topo(p);
  topo::SliceTableCache cache(topo.num_slices(), {},
                              [&topo](int s, topo::EcmpTable& table) {
                                topo.slice_routes(s, nullptr, table);
                              });
  const int boundaries = 2 * cache.window();
  const auto built_before = cache.stats().prefetch_builds;
  int slice = 0;
  for (auto _ : state) {
    for (int b = 0; b < boundaries; ++b) {
      cache.prefetch(slice);
      slice = (slice + 1) % topo.num_slices();
    }
  }
  const auto steps = static_cast<double>(state.iterations()) * boundaries;
  state.counters["per_boundary"] = benchmark::Counter(
      steps, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["builds_per_boundary"] =
      static_cast<double>(cache.stats().prefetch_builds - built_before) / steps;
  state.counters["window"] = cache.window();
}
BENCHMARK(BM_SliceBoundaryPrefetch)
    ->Unit(benchmark::kMillisecond)
    ->Arg(108)
    ->Arg(432)
    ->UseRealTime();

// Full k=24 Opera construction (432 racks, 5184 hosts): topology
// generate-and-test, all 432 slice tables, hosts/ToRs/agents. The ROADMAP
// target is single-digit seconds.
void BM_OperaK24Construction(benchmark::State& state) {
  for (auto _ : state) {
    core::FabricConfig cfg = core::FabricConfig::make(core::FabricKind::kOpera);
    cfg.scale(432, 12);
    auto net = core::NetworkFactory::build(cfg);
    benchmark::DoNotOptimize(net->num_hosts());
  }
}
BENCHMARK(BM_OperaK24Construction)->Unit(benchmark::kSecond)->Iterations(1);

topo::OperaParams k24_params() {
  topo::OperaParams p;
  p.num_racks = 432;
  p.num_switches = 12;
  p.hosts_per_rack = 12;
  p.seed = 1;
  return p;
}

// Every (rack, switch) circuit of one slice per iteration, cycling through
// the k=24 slices: the lookup the fluid allocator and the packet planes'
// uplink choice make.
void BM_CircuitPeer(benchmark::State& state) {
  const topo::OperaTopology topo(k24_params());
  int slice = 0;
  for (auto _ : state) {
    topo::Vertex sum = 0;
    for (topo::Vertex r = 0; r < topo.num_racks(); ++r) {
      for (int sw = 0; sw < topo.num_switches(); ++sw) sum += topo.circuit_peer(sw, r, slice);
    }
    benchmark::DoNotOptimize(sum);
    slice = (slice + 1) % topo.num_slices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          topo.num_racks() * topo.num_switches());
}
BENCHMARK(BM_CircuitPeer)->Unit(benchmark::kMicrosecond);

// The fluid step: one per-slice RotorRateLb allocation per iteration at
// k=24 (432 racks) over ~600 random (src, dst) groups, cycling through the
// slices, no failures.
void BM_RotorRateLbAllocate(benchmark::State& state) {
  const topo::OperaTopology topo(k24_params());
  const fluid::RotorRateLb lb(topo, fluid::RotorRateLb::Params{10e9, 98.0 / 99.0, 12, true});
  sim::Rng rng(1);
  std::map<std::pair<std::int32_t, std::int32_t>, std::int64_t> demand;
  while (demand.size() < 600) {
    const auto a = static_cast<std::int32_t>(rng.index(432));
    const auto b = static_cast<std::int32_t>(rng.index(432));
    demand[{a, b}] += rng.uniform_int(1, 12);
  }
  std::vector<fluid::GroupDemand> groups;
  for (const auto& [key, flows] : demand) {
    groups.push_back(fluid::GroupDemand{key.first, key.second, flows});
  }
  int slice = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lb.allocate(slice, groups));
    slice = (slice + 1) % topo.num_slices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RotorRateLbAllocate)->Unit(benchmark::kMicrosecond);

void BM_PortQueue(benchmark::State& state) {
  net::PortQueue q;
  for (auto _ : state) {
    auto pkt = net::make_packet();
    pkt->type = net::PacketType::kData;
    pkt->tclass = net::TrafficClass::kLowLatency;
    pkt->size_bytes = 1500;
    benchmark::DoNotOptimize(q.enqueue(std::move(pkt)));
    benchmark::DoNotOptimize(q.dequeue());
  }
}
BENCHMARK(BM_PortQueue);

// One forwarding hop: a node whose only port (10 Gb/s, 100 ns) loops back
// to itself and resends every arriving packet, with `inflight` MTU packets
// circulating. With one, every send finds the serializer idle; with four,
// a packet always waits behind the serializer. events_per_packet counts
// the events each hop costs: its arrival, plus the serializer's done event
// when a packet waits for it.
class LoopNode : public net::Node {
 public:
  explicit LoopNode(sim::ShardContext& ctx) : Node(ctx, "loop") {
    add_port(10e9, sim::Time::ns(100), net::PortQueue::Config{});
    port(0).connect(this, 0);
  }
  void receive(net::PacketPtr pkt, int) override {
    ++hops;
    port(0).send(std::move(pkt));
  }
  std::int64_t hops = 0;
};

void BM_ForwardHop(benchmark::State& state, int inflight) {
  sim::Simulator sim;
  sim.set_key_mode(sim::Simulator::KeyMode::kCausal);
  sim::ShardContext ctx(sim);
  LoopNode node(ctx);
  for (int i = 0; i < inflight; ++i) {
    auto pkt = net::make_packet();
    pkt->type = net::PacketType::kData;
    pkt->tclass = net::TrafficClass::kLowLatency;
    pkt->size_bytes = net::kMtuBytes;
    node.port(0).send(std::move(pkt));
  }
  for (auto _ : state) sim.run_until(sim.now() + sim::Time::ms(1));
  state.counters["ns_per_packet"] = benchmark::Counter(
      static_cast<double>(node.hops), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["events_per_packet"] =
      static_cast<double>(sim.events_executed()) / static_cast<double>(node.hops);
}
BENCHMARK_CAPTURE(BM_ForwardHop, idle, 1);
BENCHMARK_CAPTURE(BM_ForwardHop, back_to_back, 4);

void BM_OperaEndToEnd(benchmark::State& state) {
  // Simulated-time throughput of the whole stack: a 16-rack Opera network
  // at moderate low-latency load for 5 ms of simulated time.
  for (auto _ : state) {
    core::OperaConfig cfg;
    cfg.topology.num_racks = 16;
    cfg.topology.num_switches = 4;
    cfg.topology.hosts_per_rack = 4;
    cfg.topology.seed = 11;
    core::OperaNetwork net(cfg);
    sim::Rng rng(7);
    for (int i = 0; i < 100; ++i) {
      const auto src = static_cast<std::int32_t>(rng.index(64));
      auto dst = static_cast<std::int32_t>(rng.index(64));
      if (dst == src) dst = (dst + 1) % 64;
      net.submit_flow(src, dst, 20'000,
                      sim::Time::us(static_cast<std::int64_t>(rng.index(1'000))));
    }
    net.run_until(sim::Time::ms(5));
    benchmark::DoNotOptimize(net.tracker().completed());
  }
  state.SetLabel("16 racks, 100 flows, 5 ms simulated");
}
BENCHMARK(BM_OperaEndToEnd)->Unit(benchmark::kMillisecond);

void BM_ShardedOperaEndToEnd(benchmark::State& state) {
  // The fig08-style scaling row: the same end-to-end stack as
  // BM_OperaEndToEnd with the event loop sharded over N rack domains —
  // output is bit-identical across arguments; wall-clock shows the
  // barrier/mailbox cost on this machine (and the speedup, given cores).
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::OperaConfig cfg;
    cfg.topology.num_racks = 16;
    cfg.topology.num_switches = 4;
    cfg.topology.hosts_per_rack = 4;
    cfg.topology.seed = 11;
    cfg.threads = threads;
    core::OperaNetwork net(cfg);
    sim::Rng rng(7);
    for (int i = 0; i < 100; ++i) {
      const auto src = static_cast<std::int32_t>(rng.index(64));
      auto dst = static_cast<std::int32_t>(rng.index(64));
      if (dst == src) dst = (dst + 1) % 64;
      net.submit_flow(src, dst, 20'000,
                      sim::Time::us(static_cast<std::int64_t>(rng.index(1'000))));
    }
    net.run_until(sim::Time::ms(5));
    benchmark::DoNotOptimize(net.tracker().completed());
    state.counters["epochs"] = static_cast<double>(net.engine().epochs());
    state.counters["mail"] = static_cast<double>(net.engine().mail_delivered());
  }
  state.SetLabel("16 racks, 100 flows, 5 ms simulated, sharded");
}
BENCHMARK(BM_ShardedOperaEndToEnd)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// The shard barrier alone: S shards, each with one trivial event per
// lookahead window, so every epoch is a full dispatch + barrier round trip
// with no work and no mail. per_epoch is the wall time of one round trip.
void BM_EpochBarrier(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const sim::Time lookahead = sim::Time::ns(500);
  constexpr std::int64_t kEpochs = 10'000;
  sim::ShardedSimulator engine(shards, lookahead);
  std::function<void(int)> tick = [&](int s) {
    engine.shard(s).schedule_in(lookahead, [&tick, s] { tick(s); });
  };
  for (int s = 0; s < shards; ++s) engine.seed(s, lookahead / 2, [&tick, s] { tick(s); });
  for (auto _ : state) engine.run_until(engine.now() + lookahead * kEpochs);
  state.counters["per_epoch"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kEpochs),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EpochBarrier)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
