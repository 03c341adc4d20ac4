#include "support/support.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/fabric.h"
#include "exp/run_guard.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace opera::support {

core::OperaConfig opera_testbed(const Testbed& testbed) {
  core::OperaConfig cfg;
  cfg.topology = testbed.topology();
  cfg.seed = testbed.network_seed;
  cfg.bulk_threshold_bytes = testbed.bulk_threshold_bytes;
  return cfg;
}

core::OperaConfig rotornet_testbed(const Testbed& testbed, bool hybrid) {
  auto cfg = core::FabricConfig::make(core::FabricKind::kRotorNet);
  cfg.rotornet = {.num_racks = testbed.racks,
                  .num_switches = testbed.u + (hybrid ? 1 : 0),
                  .hybrid = hybrid,
                  .seed = testbed.topology_seed};
  cfg.rotornet_hosts_per_rack = testbed.hosts_per_rack;
  cfg.seed = testbed.network_seed;
  cfg.bulk_threshold_bytes = testbed.bulk_threshold_bytes;
  return cfg.rotornet_config();
}

void submit_mixed_workload(core::Network& net, int flows) {
  sim::Rng wl(99);
  const auto hosts = static_cast<std::size_t>(net.num_hosts());
  for (int i = 0; i < flows; ++i) {
    const auto src = static_cast<std::int32_t>(wl.index(hosts));
    auto dst = static_cast<std::int32_t>(wl.index(hosts));
    while (dst == src) dst = static_cast<std::int32_t>(wl.index(hosts));
    const std::int64_t bytes = (i % 4 == 0) ? 600'000 : 20'000;
    net.submit_flow(src, dst, bytes, sim::Time::us(5 * i));
  }
}

void PrintTo(const Completion& c, std::ostream* os) {
  *os << "{flow " << c.id << ", start " << c.start_ps << " ps, end " << c.end_ps
      << " ps}";
}

RunSnapshot snapshot(const core::Network& net) {
  RunSnapshot out;
  for (const auto& rec : net.tracker().completions()) {
    out.completions.push_back(
        Completion{rec.flow.id, rec.flow.start.picoseconds(), rec.end.picoseconds()});
  }
  out.events = net.events_executed();
  out.digest = exp::state_digest(net);
  if (const auto* opera = dynamic_cast<const core::OperaNetwork*>(&net)) {
    out.tor = opera->tor_stats();
  }
  return out;
}

RunSnapshot finish_run(core::Network& net) {
  net.run_until(sim::Time::ms(40));
  return snapshot(net);
}

RunSnapshot run_mixed_workload(core::Network& net, bool with_failures) {
  submit_mixed_workload(net);
  if (with_failures) {
    auto* opera = dynamic_cast<core::OperaNetwork*>(&net);
    EXPECT_NE(opera, nullptr) << "only an OperaNetwork takes failures";
    if (opera != nullptr) {
      net.run_until(sim::Time::us(300));
      opera->inject_uplink_failure(1, 0);
      net.run_until(sim::Time::ms(3));
      opera->inject_switch_failure(2);
    }
  }
  return finish_run(net);
}

void expect_same_run(const RunSnapshot& expected, const RunSnapshot& actual,
                     const std::string& label) {
  const auto& want = expected.completions;
  const auto& got = actual.completions;
  EXPECT_FALSE(want.empty()) << label << ": the expected run completed no flow";
  if (want.size() != got.size()) {
    ADD_FAILURE() << label << ": " << got.size() << " completions, expected "
                  << want.size();
  } else {
    const auto [w, g] = std::mismatch(want.begin(), want.end(), got.begin());
    if (w != want.end()) {
      ADD_FAILURE() << label << ": completion " << std::distance(want.begin(), w)
                    << " is " << ::testing::PrintToString(*g) << ", expected "
                    << ::testing::PrintToString(*w);
    }
  }
  EXPECT_EQ(expected.events, actual.events) << label << ": events";
  EXPECT_EQ(expected.digest, actual.digest) << label << ": state digest";
  ASSERT_EQ(expected.tor.has_value(), actual.tor.has_value()) << label;
  if (expected.tor) {
    EXPECT_EQ(expected.tor->trims, actual.tor->trims) << label << ": trims";
    EXPECT_EQ(expected.tor->drops, actual.tor->drops) << label << ": drops";
    EXPECT_EQ(expected.tor->forward_drops, actual.tor->forward_drops)
        << label << ": forward drops";
    EXPECT_EQ(expected.tor->wire_drops, actual.tor->wire_drops)
        << label << ": wire drops";
  }
}

}  // namespace opera::support
