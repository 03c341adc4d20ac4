// opera_perf — the benchmark driver. Runs one workload in this process and
// prints one JSON object on stdout; benchmark/run.py runs it in fresh
// processes, checks its outputs and aggregates the timings (see
// benchmark/README.md for the workloads and metrics).
//
//   opera_perf --workload=NAME --seed=N [--threads=N] [--smoke] [--spans=PATH]
//
// Every timed region is a call into a layer's public API, timed from
// outside. The flow list is generated before the fabric is built and
// timed on its own, so the program under test only ever sees the
// generated flows. Without --spans only the top-level spans are recorded
// (generate, build, submit, run). --spans turns on the trace: packet
// workloads step the run one slice at a time — run_until(k*slice - 1 ps),
// then run_until(k*slice) — so slice-boundary instants are timed apart
// from in-slice work; Opera workloads also time a standalone topology
// construction and 16 slice-table builds; every span is written to PATH
// as JSON lines.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/fabric.h"
#include "exp/testbed.h"
#include "fluid/fluid_network.h"
#include "sim/checkpoint.h"
#include "sim/rng.h"
#include "topo/opera_topology.h"
#include "workload/day_in_the_life.h"
#include "workload/flow_size_dist.h"
#include "workload/synthetic.h"

namespace {

using namespace opera;

// In-memory span recorder: name, start, end and the enclosing span.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.open(name)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  // Durations of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_s(std::string_view name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.name == name) out.push_back(s.end_s - s.start_s);
    }
    return out;
  }
  [[nodiscard]] double total_s(std::string_view name) const {
    double total = 0.0;
    for (const double d : durations_s(name)) total += d;
    return total;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  int open(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = now_s();
    stack_.pop_back();
  }

  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
  return v[v.size() / 2];
}

// Host time at a fixed core speed. Cores may be shared with other
// machines' work: on the 4-vCPU Xeon VM this benchmark was calibrated on,
// a neighbour's load slows the same code by up to 2x for seconds at a
// time. So a timed region is cut into stretches of at least 50 ms, and a
// fixed burst of heap and random-table work — no simulator code — is
// timed between stretches, on as many threads at once as the timed work
// runs shards. Each stretch counts as its wall time times kQuietBurstS
// over the mean burst time on either side: the seconds it would have
// taken on cores running the burst in kQuietBurstS. A change to the
// simulator moves the stretches, never the bursts.
class SteadyTimer {
 public:
  SteadyTimer(Tracer& tracer, int threads)
      : tracer_(tracer), threads_(threads), last_burst_s_(burst_s()), mark_(Clock::now()) {}

  // Call between steps of the timed work: probes once 50 ms have passed.
  void poll() {
    if (Clock::now() - mark_ >= std::chrono::milliseconds(50)) checkpoint();
  }
  // Ends the region and returns its normalised seconds.
  double stop() {
    checkpoint();
    return normalised_s_;
  }
  [[nodiscard]] double wall_s() const { return wall_s_; }
  [[nodiscard]] double median_burst_s() const { return median(bursts_s_); }

  // The quiet burst time (the fastest seen on the calibration VM).
  static constexpr double kQuietBurstS = 1.15e-3;

 private:
  using Clock = std::chrono::steady_clock;

  void checkpoint() {
    const double stretch = std::chrono::duration<double>(Clock::now() - mark_).count();
    const double burst = burst_s();
    normalised_s_ += stretch * kQuietBurstS / ((last_burst_s_ + burst) / 2.0);
    wall_s_ += stretch;
    last_burst_s_ = burst;
    bursts_s_.push_back(burst);
    mark_ = Clock::now();
  }

  // Mean burst time over threads_ concurrent bursts; the calling thread
  // keeps its table between bursts, helpers fault theirs in untimed.
  double burst_s() {
    static Scratch scratch;
    Tracer::Scope span(tracer_, "bench.probe");
    std::vector<double> times(static_cast<std::size_t>(threads_));
    std::vector<std::thread> helpers;
    for (int i = 1; i < threads_; ++i) {
      helpers.emplace_back([&times, i] {
        Scratch own;
        times[static_cast<std::size_t>(i)] = burst_on(own);
      });
    }
    times[0] = burst_on(scratch);
    for (auto& h : helpers) h.join();
    double total = 0.0;
    for (const double t : times) total += t;
    return total / threads_;
  }

  struct Scratch {
    std::vector<std::uint32_t> table = std::vector<std::uint32_t>(1u << 16);
    std::vector<std::uint64_t> heap;
  };

  // The same 20k operations every time: pop the minimum of a 4096-entry
  // heap, update a random slot of a 256 KiB table, push a later key. Of
  // the table sizes tried (16 KiB to 16 MiB), one the size of a core's L2
  // tracked the simulator's slowdowns best.
  static double burst_on(Scratch& s) {
    auto& table = s.table;
    auto& heap = s.heap;
    heap.clear();
    heap.reserve(4096);
    const auto start = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (int i = 0; i < 4096; ++i) {
      heap.push_back(next() >> 40);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    for (int i = 0; i < 20'000; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const std::uint64_t key = heap.back();
      table[next() & (table.size() - 1)] += static_cast<std::uint32_t>(key);
      heap.back() = key + (x >> 50);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  Tracer& tracer_;
  int threads_;
  double last_burst_s_;
  Clock::time_point mark_;
  double normalised_s_ = 0.0;
  double wall_s_ = 0.0;
  std::vector<double> bursts_s_;
};

struct Workload {
  core::FabricConfig config;
  std::vector<workload::FlowSpec> flows;
  std::optional<net::TrafficClass> force;
  sim::Time horizon;
};

// Websearch Poisson arrivals: arrival times and flow sizes are one fixed
// draw from the DCTCP distribution, and the seed draws every flow's
// endpoints. Redrawn sizes would move the offered bytes, and so the run
// time, by several percent from seed to seed (the heavy tail), and
// reshuffled sizes move p99 FCT by up to 10%.
std::vector<workload::FlowSpec> websearch_flows(std::int32_t hosts, double load,
                                                sim::Time duration, std::uint64_t seed) {
  constexpr std::uint64_t kSizeDrawSeed = 0x5eed;
  sim::Rng size_rng(kSizeDrawSeed);
  auto flows = workload::poisson_workload(workload::FlowSizeDistribution::websearch(),
                                          hosts, load, 10e9, duration, size_rng);
  sim::Rng rng(seed);
  const auto n = static_cast<std::size_t>(hosts);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].src_host = static_cast<std::int32_t>(rng.index(n));
    do {
      flows[i].dst_host = static_cast<std::int32_t>(rng.index(n));
    } while (flows[i].dst_host == flows[i].src_host);
  }
  return flows;
}

// The six workloads (benchmark/README.md gives the reason for each).
// --smoke shrinks each to roughly 1/20 of its work, and the k=24 fabrics
// to 48 racks so their construction stays quick.
std::optional<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                      bool smoke) {
  const auto paper = exp::Testbed::paper();
  const double shrink = smoke ? 20.0 : 1.0;
  Workload w;
  if (name == "opera_websearch" || name == "opera_websearch_t4" ||
      name == "expander_websearch") {
    w.config = name == "expander_websearch" ? paper.expander() : paper.opera();
    w.config.threads = name == "opera_websearch_t4" ? 4 : 1;
    w.flows = websearch_flows(paper.num_hosts(), 0.25,
                              sim::Time::from_seconds(5e-3 / shrink), seed);
    w.force = net::TrafficClass::kLowLatency;
    w.horizon = sim::Time::ms(60);
  } else if (name == "opera_bulk_perm") {
    w.config = paper.opera();
    w.config.threads = 1;
    sim::Rng rng(seed);
    const auto per_perm = static_cast<std::size_t>(paper.num_hosts() / shrink);
    for (int round = 0; round < 2; ++round) {
      auto perm = workload::permutation_workload(paper.num_hosts(), paper.hosts_per_rack,
                                                 250'000, rng);
      perm.resize(per_perm);
      w.flows.insert(w.flows.end(), perm.begin(), perm.end());
    }
    w.force = net::TrafficClass::kBulk;
    w.horizon = sim::Time::ms(200);
  } else if (name == "opera_k24_websearch") {
    w.config = core::FabricConfig::make(core::FabricKind::kOpera).scale(smoke ? 48 : 432, 12);
    w.config.threads = 1;
    w.flows = websearch_flows(w.config.num_hosts(), 0.10, sim::Time::us(1250), seed);
    w.force = net::TrafficClass::kLowLatency;
    w.horizon = sim::Time::ms(40);
  } else if (name == "fluid_day_k24") {
    w.config = core::FabricConfig::make(core::FabricKind::kOpera).scale(smoke ? 48 : 432, 12);
    w.config.engine = core::EngineKind::kFluid;
    w.config.threads = 1;  // the fluid integrator is single-threaded
    // 0.38 s phases give ~995k flows for every seed. 0.4 s phases give
    // 1,045k-1,050k flows, straddling 2^20, where container capacities
    // double and peak RSS jumps by 60 MB from one seed to the next.
    const auto day = workload::DayInTheLifeSpec::standard_day(
        sim::Time::from_seconds(0.38 / shrink), 0.27, seed);
    w.flows = workload::day_in_the_life_workload(day, w.config.num_hosts(),
                                                 w.config.opera.hosts_per_rack,
                                                 w.config.link.rate_bps);
    // Room for the day's last elephants (datamining flows reach 1 GB).
    w.horizon = day.total_duration() + sim::Time::sec(2);
  } else {
    return std::nullopt;
  }
  return w;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

// Minimal JSON object writer: keys are emitted in insertion order.
class JsonObject {
 public:
  JsonObject& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& count(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& raw(const char* key, const std::string& json) {
    out_ += out_.empty() ? "{" : ", ";
    out_ += "\"";
    out_ += key;
    out_ += "\": ";
    out_ += json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=NAME --seed=N [--threads=N] [--smoke] "
               "[--spans=PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string spans_path;
  std::uint64_t seed = 1;
  int threads = 0;  // 0 = the workload's own thread count
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view flag) -> std::optional<std::string> {
      if (arg.substr(0, flag.size()) != flag) return std::nullopt;
      return std::string(arg.substr(flag.size()));
    };
    if (auto v = value("--workload=")) {
      name = *v;
    } else if (auto v = value("--seed=")) {
      seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--threads=")) {
      threads = std::atoi(v->c_str());
    } else if (auto v = value("--spans=")) {
      spans_path = *v;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  const bool trace = !spans_path.empty();

  fluid::register_fluid_engines();
  Tracer tracer;
  std::optional<Workload> wl;
  {
    Tracer::Scope span(tracer, "workload.generate");
    wl = make_workload(name, seed, smoke);
  }
  if (!wl) {
    std::fprintf(stderr, "opera_perf: unknown workload '%s'\n", name.c_str());
    return usage(argv[0]);
  }
  core::FabricConfig cfg = wl->config;
  if (threads > 0) cfg.threads = threads;
  // Never more shards than the host has cores.
  cfg.threads = std::min<int>(cfg.threads,
                              static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));

  // The speed probe runs as many threads as the timed work runs shards.
  const int probe_threads = std::max(1, cfg.threads);
  SteadyTimer(tracer, probe_threads).stop();  // faults in the probe's table untimed

  // Set-up is the median of repeated builds: a cheap fabric (the expander
  // builds in milliseconds) is rebuilt until 0.25 s of builds accumulate,
  // so its set-up time is not one noisy sample; a k=24 build runs once.
  std::unique_ptr<core::Network> net;
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  do {
    net.reset();
    SteadyTimer timer(tracer, probe_threads);
    {
      Tracer::Scope span(tracer, "core.build");
      net = core::NetworkFactory::build(cfg);
    }
    setup_s.push_back(timer.stop());
    setup_wall_s.push_back(timer.wall_s());
  } while (tracer.total_s("core.build") < 0.25 && setup_s.size() < 25);

  // run_s: from the first submission until the run ends.
  SteadyTimer run_timer(tracer, probe_threads);
  {
    Tracer::Scope span(tracer, "core.submit");
    for (std::size_t i = 0; i < wl->flows.size(); ++i) {
      const auto& f = wl->flows[i];
      net->submit_remapped(f.src_host, f.dst_host, f.size_bytes, f.start, wl->force);
      if (i % 4096 == 0) run_timer.poll();
    }
  }
  const auto& tracker = net->tracker();
  // The fluid engine is not stepped: stopping it mid-slice adds integration
  // breakpoints, which moves the rounding of its byte counters.
  const bool step = trace && cfg.engine == core::EngineKind::kPacket;
  {
    Tracer::Scope span(tracer, "core.run");
    if (step) {
      for (sim::Time t = cfg.slice.duration;; t += cfg.slice.duration) {
        const sim::Time end = std::min(t, wl->horizon);
        {
          Tracer::Scope in_slice(tracer, "core.in_slice");
          net->run_until(end - sim::Time::ps(1));
        }
        {
          Tracer::Scope boundary(tracer, "core.boundary");
          net->run_until(end);
        }
        if (tracker.completed() >= tracker.registered() || end >= wl->horizon) break;
        run_timer.poll();
      }
    } else {
      // run_to_completion(horizon), spelled out so the speed probe can be
      // polled at each of its completion checks.
      net->run_with_progress(wl->horizon, sim::Time::us(500), [&](core::Network&) {
        run_timer.poll();
        return tracker.registered() > 0 && tracker.completed() >= tracker.registered();
      });
    }
  }
  const double run_s = run_timer.stop();
  const double rss_mb = peak_rss_mb();

  // Simulated summary: FCT percentiles over every completed flow, goodput
  // as completed payload bits over the last completion time.
  const auto fct = tracker.fct_us(0, std::numeric_limits<std::int64_t>::max());
  std::int64_t submitted_bytes = 0;
  for (const auto& f : wl->flows) submitted_bytes += f.size_bytes;
  std::int64_t completed_bytes = 0;
  sim::Time last_end;
  for (const auto& rec : tracker.completions()) {
    completed_bytes += rec.flow.size_bytes;
    last_end = std::max(last_end, rec.end);
  }
  sim::Fingerprint fp;
  net->fingerprint(fp);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fp.digest()));

  JsonObject summary;
  summary.count("flows", wl->flows.size())
      .count("completed", tracker.completed())
      .count("submitted_bytes", static_cast<std::uint64_t>(submitted_bytes))
      .count("completed_bytes", static_cast<std::uint64_t>(completed_bytes))
      .count("fct_count", fct.count())
      .num("fct_p50_us", fct.empty() ? 0.0 : fct.percentile(50))
      .num("fct_p99_us", fct.empty() ? 0.0 : fct.percentile(99))
      .num("goodput_gbps", last_end > sim::Time::zero()
                               ? static_cast<double>(completed_bytes) * 8.0 /
                                     last_end.to_seconds() / 1e9
                               : 0.0);

  // Layer counters, read through each layer's public API; zero where the
  // workload's fabric does not have the layer.
  JsonObject counters;
  counters.count("sim.events", net->events_executed());
  core::OperaNetwork::TorStats tor;
  topo::SliceTableCache::Stats cache;
  double voq_mb = 0.0;
  if (const auto* opera_net = dynamic_cast<const core::OperaNetwork*>(net.get())) {
    tor = opera_net->tor_stats();
    cache = opera_net->slice_tables().stats();
    voq_mb = static_cast<double>(opera_net->voq_memory_bytes()) / 1e6;
  }
  fluid::FluidNetwork::FluidStats fluid_stats;
  if (const auto* fluid_net = dynamic_cast<const fluid::FluidNetwork*>(net.get())) {
    fluid_stats = fluid_net->fluid_stats();
  }
  counters.count("net.trims", tor.trims)
      .count("net.drops", tor.drops)
      .count("net.forward_drops", tor.forward_drops)
      .count("net.wire_drops", tor.wire_drops)
      .count("topo.prefetch_builds", cache.prefetch_builds)
      .count("topo.demand_builds", cache.demand_builds)
      .count("topo.evictions", cache.evictions)
      .num("topo.table_peak_mb", static_cast<double>(cache.peak_resident_bytes) / 1e6)
      .num("transport.voq_mb", voq_mb)
      .num("fluid.direct_gb", fluid_stats.direct_bytes / 1e9)
      .num("fluid.vlb_gb", fluid_stats.vlb_bytes / 1e9);

  // Topology probe: one standalone construction and 16 slice-table builds
  // at fixed slices, after the run so it cannot disturb the timed regions
  // or the peak RSS above.
  if (trace && cfg.kind == core::FabricKind::kOpera) {
    std::optional<topo::OperaTopology> topology;
    {
      Tracer::Scope span(tracer, "topo.construct");
      topology.emplace(cfg.opera_config().topology);
    }
    for (int i = 0; i < 16; ++i) {
      Tracer::Scope span(tracer, "topo.slice_routes");
      (void)topology->slice_routes(i * topology->num_slices() / 16);
    }
  }

  JsonObject out;
  out.str("workload", name)
      .count("seed", seed)
      .str("engine", core::engine_kind_name(cfg.engine))
      .count("threads", static_cast<std::uint64_t>(net->num_shards()))
      .str("digest", digest)
      .num("gen_s", tracer.total_s("workload.generate"))
      .num("setup_s", median(setup_s))
      .num("setup_wall_s", median(setup_wall_s))
      .count("setup_builds", setup_s.size())
      .num("run_s", run_s)
      .num("run_wall_s", run_timer.wall_s())
      .num("probe_ms", run_timer.median_burst_s() * 1e3)
      .num("peak_rss_mb", rss_mb)
      .raw("summary", summary.done())
      .raw("counters", counters.done());
  std::printf("%s\n", out.done().c_str());

  if (trace) {
    std::FILE* file = std::fopen(spans_path.c_str(), "w");
    if (file == nullptr) {
      std::perror(spans_path.c_str());
      return 1;
    }
    const auto& spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(file,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                   "\"parent\": %d, \"workload\": \"%s\"}\n",
                   i, spans[i].name.c_str(), spans[i].start_s, spans[i].end_s,
                   spans[i].parent, name.c_str());
    }
    if (std::fclose(file) != 0) {
      std::perror(spans_path.c_str());
      return 1;
    }
  }
  return 0;
}
