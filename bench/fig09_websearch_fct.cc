// Figure 9: FCT vs flow size for the Websearch workload — Opera's worst
// case, since every flow is below the bulk threshold and rides indirect
// expander paths paying the bandwidth tax.
#include "exp/experiment.h"
#include "workload/flow_size_dist.h"

int main(int argc, char** argv) {
  using namespace opera;
  exp::Experiment ex("Figure 9: Websearch FCTs (all flows low-latency/indirect)",
                     argc, argv);
  const auto tb = exp::Testbed::select(ex.full());
  const auto horizon = ex.full() ? sim::Time::ms(100) : sim::Time::ms(40);
  const auto dist = workload::FlowSizeDistribution::websearch();

  exp::Experiment::FctSweep sweep;
  sweep.fabrics = {{"Opera", tb.opera()},
                   {"Clos3:1", tb.clos()},
                   {"Expander", tb.expander()}};
  sweep.loads = {0.01, 0.05, 0.10};
  sweep.horizon = horizon;
  sweep.make_flows = [&](double load) {
    sim::Rng rng(31337);
    return workload::poisson_workload(dist, tb.num_hosts(), load, 10e9, horizon / 2,
                                      rng);
  };
  ex.run_fct_sweep(sweep);

  ex.report().note(
      "Paper shape: all three networks deliver equivalent FCTs at <=10%%\n"
      "load; Opera admits no more than ~10%% (it has 60%% of the expander's\n"
      "capacity and pays a 41%% tax from its longer expected path).");
  return 0;
}
