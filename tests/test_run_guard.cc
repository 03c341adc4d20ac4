// exp::RunGuard as the one run driver.
//
// The oracle: with no limits set, a guarded drive (Experiment::run) stops
// at the same tick, with the same event count and the same multi-layer
// digest, as Network::run_to_completion — on every packet fabric and on
// the fluid and hybrid engines, sharded or not. The death test pins the
// watchdog exit: code 43, with a checkpoint that parses back into the run.
#include "exp/run_guard.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "exp/experiment.h"
#include "sim/checkpoint.h"
#include "sim/rng.h"
#include "workload/flow_size_dist.h"
#include "workload/synthetic.h"

namespace opera::exp {
namespace {

char kProg[] = "test";
char kJson[] = "--json";

std::vector<workload::FlowSpec> small_workload() {
  sim::Rng rng(17);
  return workload::poisson_workload(workload::FlowSizeDistribution::websearch(), 64,
                                    0.1, 10e9, sim::Time::ms(1), rng);
}

TEST(RunGuard, UnlimitedDriveMatchesRunToCompletion) {
  struct Case {
    core::FabricKind kind;
    core::EngineKind engine;
  };
  const Case cases[] = {
      {core::FabricKind::kOpera, core::EngineKind::kPacket},
      {core::FabricKind::kFoldedClos, core::EngineKind::kPacket},
      {core::FabricKind::kExpander, core::EngineKind::kPacket},
      {core::FabricKind::kRotorNet, core::EngineKind::kPacket},
      {core::FabricKind::kOpera, core::EngineKind::kFluid},
      {core::FabricKind::kOpera, core::EngineKind::kHybrid},
  };
  // JSON mode buffers the report, keeping gtest output clean.
  char* argv[] = {kProg, kJson};
  Experiment ex("run guard oracle", 2, argv);
  const auto flows = small_workload();
  const sim::Time horizon = sim::Time::ms(30);
  for (const auto& c : cases) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(core::fabric_kind_name(c.kind)) + "/" +
                   core::engine_kind_name(c.engine) +
                   " threads=" + std::to_string(threads));
      auto config = core::FabricConfig::make(c.kind).scale(16, 4);
      config.engine = c.engine;
      config.threads = threads;

      auto ref = core::NetworkFactory::build(config);
      for (const auto& f : flows) {
        ref->submit_remapped(f.src_host, f.dst_host, f.size_bytes, f.start);
      }
      const auto want = ref->run_to_completion(horizon);

      Experiment::RunOptions opts;
      opts.horizon = horizon;
      const auto got = ex.run("oracle", config, flows, opts);
      EXPECT_EQ(got.status.ended_at, want.ended_at);
      EXPECT_EQ(got.status.stopped_early, want.stopped_early);
      EXPECT_EQ(got.net->events_executed(), ref->events_executed());
      EXPECT_EQ(state_digest(*got.net), state_digest(*ref));
      EXPECT_GT(ref->tracker().completed(), 0u);
    }
  }
}

TEST(RunGuardDeathTest, WatchdogExits43WithParsableCheckpoint) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // In the working directory (ctest runs each build tree's tests in that
  // tree): the death-test child re-executes this body, so the name must
  // not depend on the process.
  const std::string path = "run_guard_watchdog.ckpt";
  std::remove(path.c_str());

  RunRecipe recipe;
  recipe.run_label = "watchdog";
  recipe.config = core::FabricConfig::make(core::FabricKind::kOpera).scale(16, 4);
  recipe.flows = small_workload();
  recipe.horizon = sim::Time::ms(30);
  RunGuardOptions options;
  options.max_wall_s = 1e-9;
  options.checkpoint_path = path;
  EXPECT_EXIT(
      {
        auto net = rebuild_run(recipe);
        RunGuard(recipe, options).drive(*net);
      },
      ::testing::ExitedWithCode(RunGuard::kExitWallClock), "wall-clock watchdog");

  const auto loaded = sim::load_checkpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  RunRecipe restored;
  sim::Time resume_time;
  std::uint64_t resume_digest = 0;
  ASSERT_EQ(recipe_from_checkpoint(loaded.data, &restored, &resume_time,
                                   &resume_digest),
            "");
  EXPECT_EQ(restored.run_label, "watchdog");
  EXPECT_EQ(restored.flows.size(), recipe.flows.size());
  EXPECT_GT(resume_time, sim::Time::zero());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace opera::exp
