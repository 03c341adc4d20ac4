// Figure 7: FCT vs flow size for the Datamining workload on four
// cost-comparable networks: 3:1 folded Clos, u=7-equivalent expander,
// RotorNet (hybrid + non-hybrid), and Opera.
//
// Default is a scaled-down testbed (16 racks x 4 hosts, short horizon) so
// the bench completes in seconds; --full runs closer to paper scale.
// Flow sizes above the truncation cap are clipped so bulk flows can finish
// within the horizon; the per-bucket FCT trends (who serves short flows
// fast, who sustains load) are what carry over.
#include <algorithm>

#include "exp/experiment.h"
#include "workload/flow_size_dist.h"

int main(int argc, char** argv) {
  using namespace opera;
  exp::Experiment ex("Figure 7: Datamining FCTs (p50/p99 by flow size)", argc, argv);
  const auto tb = exp::Testbed::select(ex.full());
  const auto horizon = ex.full() ? sim::Time::ms(200) : sim::Time::ms(60);
  const std::int64_t size_cap = ex.full() ? 400'000'000 : 40'000'000;
  ex.report().note("testbed: %d racks x %d hosts, horizon %s, sizes capped at %lld MB",
                   tb.racks, tb.hosts_per_rack, horizon.to_string().c_str(),
                   static_cast<long long>(size_cap / 1'000'000));

  exp::Experiment::FctSweep sweep;
  sweep.fabrics = {{"Opera", tb.opera()},
                   {"Clos3:1", tb.clos()},
                   {"Expander", tb.expander()},
                   {"RotorNet", tb.rotornet(false)},
                   {"RotorHyb", tb.rotornet(true)}};
  sweep.loads = ex.full() ? std::vector<double>{0.01, 0.10, 0.25}
                          : std::vector<double>{0.01, 0.10};
  sweep.horizon = horizon;
  sweep.make_flows = [&](double load) {
    const auto dist = workload::FlowSizeDistribution::datamining();
    sim::Rng rng(777);
    auto flows = workload::poisson_workload(dist, tb.num_hosts(), load, 10e9,
                                            horizon / 2, rng);
    for (auto& f : flows) f.size_bytes = std::min(f.size_bytes, size_cap);
    return flows;
  };
  ex.run_fct_sweep(sweep);

  ex.report().note(
      "Paper shape: Opera matches the static networks on short-flow FCT\n"
      "(priority-queued expander paths), sustains higher load, and beats\n"
      "non-hybrid RotorNet's short-flow FCT by ~3 orders of magnitude.");
  return 0;
}
