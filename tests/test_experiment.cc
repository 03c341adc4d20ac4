// Smoke tests for the exp:: experiment driver, testbeds, and structured
// output.
#include "exp/experiment.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "exp/output.h"
#include "exp/testbed.h"
#include "workload/flow_size_dist.h"

namespace opera::exp {
namespace {

char kProg[] = "test";
char kCsv[] = "--csv";
char kJson[] = "--json";
char kFull[] = "--full";

Experiment quiet_experiment(const char* name) {
  // JSON mode buffers everything, keeping gtest output clean; the report
  // is flushed (and discarded) when the Experiment goes out of scope.
  static char* argv[] = {kProg, kJson};
  return Experiment(name, 2, argv);
}

TEST(CliOptions, ParsesFlags) {
  char* argv[] = {kProg, kFull, kCsv};
  const auto opts = CliOptions::parse(3, argv);
  EXPECT_TRUE(opts.full);
  EXPECT_EQ(opts.format, OutputFormat::kCsv);
  char* argv2[] = {kProg, kJson};
  EXPECT_EQ(CliOptions::parse(2, argv2).format, OutputFormat::kJson);
  EXPECT_FALSE(CliOptions::parse(2, argv2).full);
  EXPECT_FALSE(CliOptions::parse(2, argv2).engine);
  char fluid[] = "--engine=fluid";
  char* argv3[] = {kProg, fluid};
  EXPECT_EQ(CliOptions::parse(2, argv3).engine, core::EngineKind::kFluid);
}

TEST(CliOptions, StrictValueGetters) {
  char threads[] = "--threads=3";
  char racks[] = "--racks=16";
  char load[] = "--load=0.25";
  char fabric[] = "--fabric=rotornet";
  char* argv[] = {kProg, threads, racks, load, fabric};
  EXPECT_EQ(CliOptions::parse(5, argv).threads, 3);
  EXPECT_EQ(CliOptions::arg<std::int64_t>(5, argv, "--racks", 108), 16);
  // No prefix match.
  EXPECT_EQ(CliOptions::arg<std::int64_t>(5, argv, "--rack", 108), 108);
  EXPECT_EQ(CliOptions::arg_count(5, argv, "--racks", 108), 16);
  EXPECT_EQ(CliOptions::arg_count(5, argv, "--slice-window", 0), 0);
  EXPECT_DOUBLE_EQ(CliOptions::arg<double>(5, argv, "--load", 0.1), 0.25);
  EXPECT_DOUBLE_EQ(CliOptions::arg<double>(5, argv, "--horizon-ms", 50.0), 50.0);
  EXPECT_EQ(CliOptions::arg_string(5, argv, "--fabric", "opera"), "rotornet");
  EXPECT_EQ(CliOptions::arg_value(5, argv, "--seed"), nullptr);
}

TEST(CliOptionsDeathTest, MalformedValueNamesTheFlagAndExits2) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  char two[] = "--threads=two";
  char* threads_argv[] = {kProg, two};
  EXPECT_EXIT(CliOptions::parse(2, threads_argv), ::testing::ExitedWithCode(2),
              "--threads");
  char negative[] = "--threads=-1";
  char* negative_argv[] = {kProg, negative};
  EXPECT_EXIT(CliOptions::parse(2, negative_argv), ::testing::ExitedWithCode(2),
              "--threads");
  char minus[] = "--slice-window=-3";
  char* minus_argv[] = {kProg, minus};
  EXPECT_EXIT(CliOptions::arg_count(2, minus_argv, "--slice-window", 0),
              ::testing::ExitedWithCode(2), "malformed value for --slice-window");
  char big[] = "--slice-window=2147483648";  // INT_MAX + 1
  char* big_argv[] = {kProg, big};
  EXPECT_EXIT(CliOptions::arg_count(2, big_argv, "--slice-window", 0),
              ::testing::ExitedWithCode(2), "malformed value for --slice-window");
  char warp[] = "--engine=warp";
  char* engine_argv[] = {kProg, warp};
  EXPECT_EXIT(CliOptions::parse(2, engine_argv), ::testing::ExitedWithCode(2),
              "--engine");
  char sixteen[] = "--racks=sixteen";
  char trailing[] = "--seed=7x";
  char abc[] = "--load=abc";
  char empty[] = "--load=";
  char* argv[] = {kProg, sixteen, trailing, abc};
  EXPECT_EXIT(CliOptions::arg<std::int64_t>(4, argv, "--racks", 108),
              ::testing::ExitedWithCode(2), "--racks");
  EXPECT_EXIT(CliOptions::arg<std::uint64_t>(4, argv, "--seed", 1),
              ::testing::ExitedWithCode(2), "--seed");
  EXPECT_EXIT(CliOptions::arg<double>(4, argv, "--load", 0.1),
              ::testing::ExitedWithCode(2), "--load");
  char* empty_argv[] = {kProg, empty};
  EXPECT_EXIT(CliOptions::arg<double>(2, empty_argv, "--load", 0.1),
              ::testing::ExitedWithCode(2), "--load");
  // An unsigned seed rejects a sign instead of wrapping to 2^64 - 1; a
  // double must be finite; no value carries '+' or padding.
  char seed[] = "--seed=-1";
  char nan[] = "--load=nan";
  char inf[] = "--horizon-ms=inf";
  char* strict_argv[] = {kProg, seed, nan, inf};
  EXPECT_EXIT(CliOptions::arg<std::uint64_t>(4, strict_argv, "--seed", 1),
              ::testing::ExitedWithCode(2), "malformed value for --seed: '-1'");
  EXPECT_EXIT(CliOptions::arg<double>(4, strict_argv, "--load", 0.1),
              ::testing::ExitedWithCode(2), "malformed value for --load: 'nan'");
  EXPECT_EXIT(CliOptions::arg<double>(4, strict_argv, "--horizon-ms", 50.0),
              ::testing::ExitedWithCode(2), "--horizon-ms");
  char plus[] = "--racks=+16";
  char* plus_argv[] = {kProg, plus};
  EXPECT_EXIT(CliOptions::arg_count(2, plus_argv, "--racks", 108),
              ::testing::ExitedWithCode(2), "--racks");
  char padded[] = "--racks= 16";
  char* padded_argv[] = {kProg, padded};
  EXPECT_EXIT(CliOptions::arg_count(2, padded_argv, "--racks", 108),
              ::testing::ExitedWithCode(2), "--racks");
}

TEST(Value, Renderings) {
  EXPECT_EQ(Value(3.14159, 2).text(), "3.14");
  EXPECT_EQ(Value(static_cast<std::int64_t>(42)).text(), "42");
  EXPECT_EQ(Value("plain").csv(), "plain");
  EXPECT_EQ(Value("a,b").csv(), "\"a,b\"");
  EXPECT_EQ(Value("say \"hi\"").json(), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(Value(1.5, 1).json(), "1.5");
}

// Two tables whose rows interleave, with a note between rows of one.
std::string render_interleaved(OutputFormat format) {
  ::testing::internal::CaptureStdout();
  {
    Report report("interleave", format);
    auto& a = report.table("a", {"k", "v"});
    auto& b = report.table("b", {"k"});
    a.row({"a1", 1});
    a.row({"a2", 2});
    b.row({"b1"});
    a.row({"a3", 3});
    report.note("n");
    a.row({"a4", 4});
  }
  return ::testing::internal::GetCapturedStdout();
}

TEST(Report, HumanRowsResumeUnderTheirOwnHeader) {
  std::istringstream out(render_interleaved(OutputFormat::kHuman));
  std::vector<std::string> headers;
  int rows = 0;
  for (std::string line; std::getline(out, line);) {
    if (line == "[a]" || line == "[b]") {
      headers.push_back(line.substr(1, 1));
    } else if (line.size() > 1 && (line[0] == 'a' || line[0] == 'b') &&
               std::isdigit(static_cast<unsigned char>(line[1]))) {
      ++rows;
      ASSERT_FALSE(headers.empty()) << line;
      EXPECT_EQ(line.substr(0, 1), headers.back()) << "row under the wrong header: " << line;
    }
  }
  EXPECT_EQ(rows, 5);
  EXPECT_EQ(headers, (std::vector<std::string>{"a", "b", "a"}));
}

TEST(Report, CsvAndJsonIgnoreInterleaving) {
  EXPECT_EQ(render_interleaved(OutputFormat::kCsv),
            "# bench: interleave\n"
            "table,k,v\na,a1,1\na,a2,2\n"
            "table,k\nb,b1\n"
            "a,a3,3\n# n\na,a4,4\n");
  EXPECT_EQ(render_interleaved(OutputFormat::kJson),
            "{\"bench\":\"interleave\",\"tables\":{"
            "\"a\":{\"columns\":[\"k\",\"v\"],"
            "\"rows\":[[\"a1\",1],[\"a2\",2],[\"a3\",3],[\"a4\",4]]},"
            "\"b\":{\"columns\":[\"k\"],\"rows\":[[\"b1\"]]}},"
            "\"notes\":[\"n\"]}\n");
}

TEST(Testbed, QuickAndPaperScales) {
  const auto quick = Testbed::quick();
  EXPECT_EQ(quick.num_hosts(), 64);
  EXPECT_EQ(quick.opera().num_hosts(), 64);
  EXPECT_EQ(quick.clos().num_hosts(), 96);
  EXPECT_EQ(quick.expander().num_hosts(), 60);
  EXPECT_EQ(quick.rotornet(false).num_hosts(), 64);
  // Hybrid RotorNet spends one extra uplink on the packet core.
  EXPECT_EQ(quick.rotornet(true).rotornet.num_switches, quick.switches + 1);

  const auto paper = Testbed::paper();
  EXPECT_EQ(paper.num_hosts(), 648);
  EXPECT_EQ(paper.clos().num_hosts(), 648);
  EXPECT_EQ(paper.expander().num_hosts(), 650);
  EXPECT_EQ(Testbed::select(false).num_hosts(), 64);
  EXPECT_EQ(Testbed::select(true).num_hosts(), 648);
}

// One driver smoke test per fabric: submit a small poisson workload, run,
// and expect completions plus populated FCT rows.
class DriverSmoke : public ::testing::TestWithParam<core::FabricKind> {};

TEST_P(DriverSmoke, RunsAndEmitsFctRows) {
  auto ex = quiet_experiment("driver smoke");
  auto tb = Testbed::quick();
  tb.racks = 8;
  tb.hosts_per_rack = 2;
  tb.clos_pods = 2;
  tb.expander_tors = 10;
  tb.expander_uplinks = 4;

  const auto dist = workload::FlowSizeDistribution::websearch();
  sim::Rng rng(123);
  const auto flows = workload::poisson_workload(dist, tb.num_hosts(), 0.05, 10e9,
                                                sim::Time::ms(5), rng);
  ASSERT_FALSE(flows.empty());

  Experiment::RunOptions opts;
  opts.horizon = sim::Time::ms(40);
  const auto result =
      ex.run(core::fabric_kind_name(GetParam()), tb.fabric(GetParam()), flows, opts);
  EXPECT_EQ(result.net->tracker().registered(), flows.size());
  EXPECT_GT(result.net->tracker().completed(), 0u);

  ex.emit_fct_rows(result.label, 5.0, *result.net);
  const auto& table = ex.report().table("fct", {});
  EXPECT_EQ(table.rows().size(), fct_buckets().size());
}

INSTANTIATE_TEST_SUITE_P(AllFabrics, DriverSmoke,
                         ::testing::Values(core::FabricKind::kOpera,
                                           core::FabricKind::kFoldedClos,
                                           core::FabricKind::kExpander,
                                           core::FabricKind::kRotorNet));

TEST(Experiment, FctSweepCoversFabricsByLoad) {
  auto ex = quiet_experiment("sweep smoke");
  auto tb = Testbed::quick();
  tb.racks = 8;
  tb.hosts_per_rack = 2;

  Experiment::FctSweep sweep;
  sweep.fabrics = {{"Opera", tb.opera()}};
  sweep.loads = {0.02, 0.05};
  sweep.horizon = sim::Time::ms(20);
  sweep.make_flows = [&tb](double load) {
    sim::Rng rng(7);
    return workload::poisson_workload(workload::FlowSizeDistribution::websearch(),
                                      tb.num_hosts(), load, 10e9, sim::Time::ms(5),
                                      rng);
  };
  ex.run_fct_sweep(sweep);
  const auto& table = ex.report().table("fct", {});
  // One bucket set per (load, fabric) pair.
  EXPECT_EQ(table.rows().size(), 2 * fct_buckets().size());
}

TEST(Experiment, RemapMatchesLegacyInlineIdiom) {
  auto ex = quiet_experiment("remap parity");
  const auto tb = Testbed::quick();

  sim::Rng rng(31337);
  const auto flows = workload::poisson_workload(
      workload::FlowSizeDistribution::websearch(), tb.num_hosts(), 0.05, 10e9,
      sim::Time::ms(10), rng);

  // Driver path: remap on submission (default).
  Experiment::RunOptions opts;
  opts.horizon = sim::Time::ms(30);
  const auto result = ex.run("Clos3:1", tb.clos(), flows, opts);

  // Legacy path: the `% hosts` / bump-on-collision idiom the bench
  // binaries used to hand-roll inline.
  const auto legacy = core::NetworkFactory::build(tb.clos());
  const int hosts = legacy->num_hosts();
  for (const auto& f : flows) {
    const auto src = f.src_host % hosts;
    auto dst = f.dst_host % hosts;
    if (dst == src) dst = (dst + 1) % hosts;
    legacy->submit_flow(src, dst, f.size_bytes, f.start);
  }
  legacy->run_until(sim::Time::ms(30));

  ASSERT_EQ(result.net->tracker().completed(), legacy->tracker().completed());
  const auto& ca = result.net->tracker().completions();
  const auto& cb = legacy->tracker().completions();
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].flow.src_host, cb[i].flow.src_host);
    EXPECT_EQ(ca[i].flow.dst_host, cb[i].flow.dst_host);
    EXPECT_EQ(ca[i].fct().to_us(), cb[i].fct().to_us());
  }
}

}  // namespace
}  // namespace opera::exp
