// Ablation bench for the design choices DESIGN.md calls out:
//   (1) the epsilon/drain-window rule (route low-latency traffic off
//       circuits with impending reconfiguration) — paper §4.1
//   (2) RotorLB's two-hop VLB fallback for skewed bulk demand — §4.2.2
//   (3) offset vs synchronized reconfiguration (Opera vs RotorNet) — §3.1.1
#include <algorithm>

#include "exp/experiment.h"

namespace {

using namespace opera;

core::FabricConfig base_config() {
  auto cfg = core::FabricConfig::make(core::FabricKind::kOpera);
  cfg.opera.num_racks = 16;
  cfg.opera.num_switches = 4;
  cfg.opera.hosts_per_rack = 4;
  cfg.opera.seed = 3;
  return cfg;
}

void low_latency_storm(core::Network& net, int flows) {
  sim::Rng rng(17);
  for (int i = 0; i < flows; ++i) {
    const auto src = static_cast<std::int32_t>(rng.index(64));
    auto dst = static_cast<std::int32_t>(rng.index(64));
    if (dst == src) dst = (dst + 1) % 64;
    net.submit_flow(src, dst, 50'000, sim::Time::us(15 * i));
  }
}

}  // namespace

int main(int argc, char** argv) {
  exp::Experiment ex("Ablation: drain window, VLB, reconfiguration offsetting",
                     argc, argv);

  auto& drain = ex.report().table(
      "drain_window", {"drain_us", "completed", "p50_us", "p99_us"});
  for (const auto window : {0, 10, 30}) {
    auto cfg = base_config();
    cfg.slice.drain_window = sim::Time::us(window);
    const auto net = ex.build("drain_window", cfg).net;
    low_latency_storm(*net, 800);
    net->run_until(sim::Time::ms(40));
    const auto fct = net->tracker().fct_us(0, 1'000'000);
    drain.row({static_cast<std::int64_t>(window),
               static_cast<std::int64_t>(net->tracker().completed()),
               exp::Value(fct.empty() ? 0.0 : fct.percentile(50), 1),
               exp::Value(fct.empty() ? 0.0 : fct.percentile(99), 1)});
  }
  ex.report().note(
      "-> without the rule, packets stranded on reconfiguring circuits\n"
      "   are flushed and recovered only after an RTO: fat tails.");

  auto& vlb_table = ex.report().table("vlb", {"vlb", "completed", "worst_fct_ms"});
  for (const bool vlb : {true, false}) {
    auto cfg = base_config();
    cfg.enable_vlb = vlb;
    const auto net = ex.build("vlb", cfg).net;
    for (int h = 0; h < 4; ++h) {
      net->submit_flow(h, 4 + h, 30'000'000, sim::Time::zero(),
                       net::TrafficClass::kBulk);
    }
    net->run_until(sim::Time::ms(300));
    double worst = 0.0;
    for (const auto& rec : net->tracker().completions()) {
      worst = std::max(worst, rec.fct().to_ms());
    }
    vlb_table.row({vlb ? "on" : "off",
                   static_cast<std::int64_t>(net->tracker().completed()),
                   exp::Value(net->tracker().completed() > 0 ? worst : -1.0, 1)});
  }
  ex.report().note(
      "-> direct circuits alone give a hot rack pair only (u-1)/N of a\n"
      "   link; VLB recruits the idle capacity of every other rack.");

  auto& offset = ex.report().table(
      "offsetting", {"fabric", "p50_us", "p99_us", "completed"});
  {
    const auto net = ex.build("opera", base_config()).net;
    low_latency_storm(*net, 200);
    net->run_until(sim::Time::ms(30));
    const auto fct = net->tracker().fct_us(0, 1'000'000);
    offset.row({"Opera (staggered)", exp::Value(fct.percentile(50), 1),
                exp::Value(fct.percentile(99), 1),
                static_cast<std::int64_t>(net->tracker().completed())});
  }
  {
    auto cfg = core::FabricConfig::make(core::FabricKind::kRotorNet);
    cfg.rotornet.num_racks = 16;
    cfg.rotornet.num_switches = 4;
    cfg.rotornet.hybrid = false;
    cfg.rotornet.seed = 3;
    cfg.rotornet_hosts_per_rack = 4;
    const auto net = ex.build("rotornet", cfg).net;
    low_latency_storm(*net, 200);
    net->run_until(sim::Time::ms(60));
    const auto fct = net->tracker().fct_us(0, 1'000'000);
    offset.row({"RotorNet (unison)",
                exp::Value(fct.empty() ? 0.0 : fct.percentile(50), 1),
                exp::Value(fct.empty() ? 0.0 : fct.percentile(99), 1),
                static_cast<std::int64_t>(net->tracker().completed())});
  }
  ex.report().note(
      "-> always-on multi-hop connectivity is what lets Opera carry\n"
      "   latency-sensitive traffic at packet-switched FCTs.");
  return 0;
}
