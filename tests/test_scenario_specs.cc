// Scenario specs (exp/scenario): parse -> validate -> describe round
// trips with exact golden describe() strings (these are what bench CSV
// notes and docs/SCENARIOS.md quote, so they must not drift), the parse
// errors a typo'd CLI string must produce, and the adversarial
// permutation's structural guarantees.
#include "exp/scenario.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "topo/opera_topology.h"

namespace opera::exp {
namespace {

core::FabricConfig quick_opera() {
  // The 16x4 testbed: n = 16 racks, u = 4 rotor switches, 64 hosts.
  return core::FabricConfig::make(core::FabricKind::kOpera).scale(16, 4);
}

ScenarioSpec parse_one(const std::string& text) {
  const auto r = parse_scenario(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.error;
  EXPECT_EQ(r.specs.size(), 1u) << text;
  return r.specs.empty() ? ScenarioSpec{} : r.specs.front();
}

TEST(ScenarioSpecs, DefaultsDescribeGolden) {
  const struct {
    const char* text;
    const char* golden;
  } cases[] = {
      {"ditl", "ditl: standard day, 5 x 2 ms phases, peak load 0.25, seed 3"},
      {"trace:path=day.bin", "trace: replay 'day.bin'"},
      {"adversarial-perm",
       "adversarial-perm: max-wait rack permutation, 600 KB flows"},
      {"storm-rolling",
       "storm-rolling: 2 rotor outages from 1 ms, one every 5 ms, "
       "each recovering after 12 ms"},
      {"storm-racks",
       "storm-racks: uplink 0 dark on 4 racks at 1 ms, recovery wave at 12 ms, "
       "stagger 1 ms"},
      {"gray",
       "gray: 8 lossy uplinks, loss 0.02, +30 us latency, from 1 ms, "
       "recovering after 12 ms, seed 3"},
      {"skew",
       "skew: rotor 0 settles +30 us late for 64 reconfigurations from 1 ms"},
  };
  const auto config = quick_opera();
  for (const auto& c : cases) {
    const ScenarioSpec spec = parse_one(c.text);
    EXPECT_EQ(describe(spec), c.golden);
    EXPECT_EQ(validate_scenario(spec, config), "") << c.text;
  }
}

TEST(ScenarioSpecs, ParameterizedDescribeGolden) {
  // The bench_scale_sweep suite strings and the no-recovery branches.
  EXPECT_EQ(describe(parse_one(
                "storm-rolling:switches=2,start-ms=1,period-ms=2,recover-ms=5")),
            "storm-rolling: 2 rotor outages from 1 ms, one every 2 ms, "
            "each recovering after 5 ms");
  EXPECT_EQ(describe(parse_one("storm-rolling:switches=3,recover-ms=0")),
            "storm-rolling: 3 rotor outages from 1 ms, one every 5 ms, "
            "no recovery");
  EXPECT_EQ(
      describe(parse_one(
          "gray:links=10,loss=0.08,extra-us=50,start-ms=0,recover-ms=0")),
      "gray: 10 lossy uplinks, loss 0.08, +50 us latency, from 0 ms, "
      "no recovery, seed 3");
  EXPECT_EQ(describe(parse_one("storm-racks:racks=6,switch=1,recover-ms=0")),
            "storm-racks: uplink 1 dark on 6 racks at 1 ms, no recovery");
  EXPECT_EQ(describe(parse_one("ditl:phase-ms=0.5,load=0.1,seed=3")),
            "ditl: standard day, 5 x 0.5 ms phases, peak load 0.1, seed 3");
  EXPECT_EQ(describe(parse_one("skew:switch=2,extra-us=40,slices=30,start-ms=2")),
            "skew: rotor 2 settles +40 us late for 30 reconfigurations from 2 ms");
}

TEST(ScenarioSpecs, KindNamesRoundTrip) {
  for (const auto kind :
       {ScenarioKind::kDitl, ScenarioKind::kTrace, ScenarioKind::kAdversarialPerm,
        ScenarioKind::kStormRolling, ScenarioKind::kStormRacks, ScenarioKind::kGray,
        ScenarioKind::kSkew}) {
    const std::string name = scenario_kind_name(kind);
    const std::string text =
        kind == ScenarioKind::kTrace ? name + ":path=t.bin" : name;
    EXPECT_EQ(parse_one(text).kind, kind) << name;
  }
}

TEST(ScenarioSpecs, ParseErrors) {
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      {"hurricane", "unknown scenario kind"},
      {"", "empty scenario"},
      {";;", "empty scenario"},
      {"ditl:fanout=3", "unknown key 'fanout'"},
      {"gray:period-ms=2", "unknown key 'period-ms'"},  // another kind's key
      {"gray:loss=abc", "bad value"},
      {"ditl:seed=-1", "bad value"},
      // Integers parse into the field's own type: 2^32 + 2 is not 2.
      {"storm-rolling:switches=4294967298", "bad value '4294967298' for key 'switches'"},
      {"storm-racks:racks=4294967297", "bad value '4294967297' for key 'racks'"},
      // NaN would pass every range check in validate_scenario.
      {"ditl:load=nan", "bad value 'nan' for key 'load'"},
      {"gray:loss=nan", "bad value 'nan' for key 'loss'"},
      {"skew:extra-us=nan", "bad value 'nan' for key 'extra-us'"},
      {"ditl:phase-ms=inf", "bad value 'inf' for key 'phase-ms'"},
      {"gray:links=+2", "bad value"},
      {"adversarial-perm:flow-kb=1.5", "bad value"},
      {"storm-rolling:partitionable=yes", "bad value"},
      {"ditl:load", "expected key=value"},
      {"ditl:=0.3", "expected key=value"},
      {"trace", "required key 'path' missing"},
  };
  for (const auto& c : cases) {
    const auto r = parse_scenarios(c.text);
    EXPECT_FALSE(r.ok()) << c.text;
    EXPECT_NE(r.error.find(c.needle), std::string::npos)
        << c.text << ": got error '" << r.error << "'";
  }
}

TEST(ScenarioSpecs, SuiteComposesButAllowsOnlyOneWorkload) {
  const auto suite = parse_scenarios("ditl:load=0.1;gray:links=2;skew:switch=1");
  ASSERT_TRUE(suite.ok()) << suite.error;
  ASSERT_EQ(suite.specs.size(), 3u);
  EXPECT_TRUE(scenario_is_workload(suite.specs[0]));
  EXPECT_FALSE(scenario_is_workload(suite.specs[1]));
  EXPECT_FALSE(scenario_is_workload(suite.specs[2]));

  // Failure-only suites are fine (they decorate whatever --workload ran).
  EXPECT_TRUE(parse_scenarios("gray;storm-rolling").ok());

  const auto two = parse_scenarios("ditl;trace:path=x.bin");
  EXPECT_FALSE(two.ok());
  EXPECT_NE(two.error.find("at most one workload"), std::string::npos) << two.error;
}

TEST(ScenarioSpecs, ValidateChecksRangesAgainstTheFabric) {
  const auto config = quick_opera();  // n=16, u=4
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      {"ditl:load=0", "load must be in (0, 1]"},
      {"ditl:load=1.5", "load must be in (0, 1]"},
      {"ditl:phase-ms=0", "phase-ms must be > 0"},
      {"adversarial-perm:flow-kb=0", "flow-kb must be > 0"},
      // flow-kb * 1000 bytes must fit an int64.
      {"adversarial-perm:flow-kb=9223372036854776", "flow-kb must be > 0 and at most"},
      {"storm-rolling:switches=5", "switches must be in [1, 4]"},
      {"storm-rolling:switches=0", "switches must be in [1, 4]"},
      {"storm-racks:racks=17", "racks must be in [1, 16]"},
      {"storm-racks:switch=4", "switch must be in [0, 4)"},
      {"gray:links=0", "links must be in [1, 64]"},
      {"gray:links=65", "links must be in [1, 64]"},
      {"gray:loss=1.5", "loss must be in [0, 1]"},
      {"skew:switch=7", "switch must be in [0, 4)"},
      {"skew:slices=0", "slices must be >= 1"},
      // 95 us extra + 10 us reconfiguration exceeds the 99 us slice.
      {"skew:extra-us=95", "stay under the slice duration"},
  };
  for (const auto& c : cases) {
    const std::string err = validate_scenario(parse_one(c.text), config);
    EXPECT_NE(err.find(c.needle), std::string::npos)
        << c.text << ": got '" << err << "'";
  }
}

TEST(ScenarioSpecs, FailureScenariosRequireOpera) {
  const auto clos = core::FabricConfig::make(core::FabricKind::kFoldedClos);
  EXPECT_NE(validate_scenario(parse_one("gray"), clos).find("requires the opera"),
            std::string::npos);
  EXPECT_NE(validate_scenario(parse_one("adversarial-perm"), clos)
                .find("requires the opera"),
            std::string::npos);
  // ditl composes on any fabric.
  EXPECT_EQ(validate_scenario(parse_one("ditl"), clos), "");
}

TEST(ScenarioSpecs, DitlFlowsAreSortedAndInRange) {
  const auto config = quick_opera();
  const auto flows =
      scenario_flows(parse_one("ditl:phase-ms=0.5,load=0.1,seed=3"), config);
  ASSERT_GT(flows.size(), 50u);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& f = flows[i];
    EXPECT_GE(f.src_host, 0);
    EXPECT_LT(f.src_host, config.num_hosts());
    EXPECT_GE(f.dst_host, 0);
    EXPECT_LT(f.dst_host, config.num_hosts());
    EXPECT_NE(f.src_host, f.dst_host);
    EXPECT_GT(f.size_bytes, 0);
    if (i > 0) {
      EXPECT_LE(flows[i - 1].start, f.start);
    }
  }
}

TEST(ScenarioSpecs, TraceFlowErrorsSurfaceThroughTheOutParam) {
  ScenarioSpec spec = parse_one("trace:path=/nonexistent/t.bin");
  std::string error;
  const auto flows = scenario_flows(spec, quick_opera(), &error);
  EXPECT_TRUE(flows.empty());
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(ScenarioSpecs, AdversarialPermutationIsADerangementOfRacks) {
  const auto config = quick_opera();
  const topo::OperaTopology topo(config.opera);
  const auto flows = adversarial_permutation_workload(topo, 4, 600'000);
  ASSERT_EQ(flows.size(), 64u);  // one flow per host
  std::set<std::int32_t> sources;
  std::set<std::int32_t> destinations;
  for (const auto& f : flows) {
    EXPECT_TRUE(sources.insert(f.src_host).second);
    EXPECT_TRUE(destinations.insert(f.dst_host).second);
    EXPECT_NE(f.src_host / 4, f.dst_host / 4) << "rack self-match";
    EXPECT_EQ(f.size_bytes, 600'000);
    EXPECT_EQ(f.start.picoseconds(), 0);
  }
  EXPECT_EQ(sources.size(), 64u);
  EXPECT_EQ(destinations.size(), 64u);

  // Deterministic: the permutation is a pure function of the topology.
  const auto again = adversarial_permutation_workload(topo, 4, 600'000);
  ASSERT_EQ(again.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(flows[i].src_host, again[i].src_host);
    EXPECT_EQ(flows[i].dst_host, again[i].dst_host);
  }
}

TEST(ScenarioSpecs, AdversarialPermutationPicksLateCircuits) {
  // The whole point of the generator: the chosen partners should wait
  // longer for their first direct circuit than the average pair does.
  const auto config = quick_opera();
  const topo::OperaTopology topo(config.opera);
  const int n = topo.num_racks();
  const int u = topo.num_switches();
  std::vector<std::vector<int>> wait(static_cast<std::size_t>(n),
                                     std::vector<int>(static_cast<std::size_t>(n), -1));
  for (int r = 0; r < n; ++r) {
    for (int s = 0; s < topo.num_slices(); ++s) {
      for (int sw = 0; sw < u; ++sw) {
        if (sw == topo.reconfiguring_switch(s)) continue;
        const auto peer = topo.circuit_peer(sw, r, s);
        if (peer != r && wait[static_cast<std::size_t>(r)][static_cast<std::size_t>(peer)] < 0) {
          wait[static_cast<std::size_t>(r)][static_cast<std::size_t>(peer)] = s;
        }
      }
    }
  }
  double all_pairs = 0.0;
  int pairs = 0;
  for (int r = 0; r < n; ++r) {
    for (int p = 0; p < n; ++p) {
      if (p == r) continue;
      all_pairs += wait[static_cast<std::size_t>(r)][static_cast<std::size_t>(p)];
      ++pairs;
    }
  }
  const double mean_wait = all_pairs / pairs;

  const auto flows = adversarial_permutation_workload(topo, 1, 1000);
  double chosen = 0.0;
  for (const auto& f : flows) {
    chosen += wait[static_cast<std::size_t>(f.src_host)][static_cast<std::size_t>(f.dst_host)];
  }
  EXPECT_GT(chosen / static_cast<double>(flows.size()), mean_wait);
}

}  // namespace
}  // namespace opera::exp
