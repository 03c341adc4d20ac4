// Table 1: Opera P4 ruleset size and switch-memory utilization vs
// datacenter size. Entries = N(N-1) low-latency rules (per-slice,
// per-destination) + N(u-1) bulk rules (per-slice direct circuits),
// validated against a concrete OperaTopology's actual forwarding state.
#include "core/routing_state.h"
#include "exp/experiment.h"
#include "topo/opera_topology.h"

int main(int argc, char** argv) {
  opera::exp::Experiment ex("Table 1: routing state vs datacenter size", argc,
                            argv);
  using opera::core::RoutingStateModel;

  auto& table = ex.report().table(
      "routing_state", {"racks", "k", "entries", "utilization_pct"});
  for (const auto& row : RoutingStateModel::kPaperRows) {
    const auto entries = RoutingStateModel::total_entries(row.racks, row.radix / 2);
    table.row({static_cast<std::int64_t>(row.racks),
               static_cast<std::int64_t>(row.radix),
               static_cast<std::int64_t>(entries),
               opera::exp::Value(RoutingStateModel::utilization_percent(entries), 1)});
  }

  // Cross-check the counting argument against a real topology: in every
  // slice each ToR has one low-latency rule per destination and one bulk
  // rule per active uplink circuit.
  opera::topo::OperaParams p;
  p.num_racks = 108;
  p.num_switches = 6;
  p.seed = 1;
  const opera::topo::OperaTopology topo(p);
  long long ll_rules = 0;
  long long bulk_rules = 0;
  for (int s = 0; s < topo.num_slices(); ++s) {
    ll_rules += static_cast<long long>(topo.num_racks() - 1);
    // Rack 0's live direct circuits this slice (self-matches need no rule).
    for (int sw = 0; sw < topo.num_switches(); ++sw) {
      if (topo.live_peer(sw, 0, s, nullptr) >= 0) ++bulk_rules;
    }
  }
  auto& check = ex.report().table(
      "cross_check", {"racks", "model_entries", "topology_walk_entries"});
  check.row({108,
             static_cast<std::int64_t>(RoutingStateModel::total_entries(108, 6)),
             static_cast<std::int64_t>(ll_rules + bulk_rules)});
  ex.report().note(
      "Paper: 12,096 entries / 0.7%% at 108 racks up to 1,461,600 / 85.9%%\n"
      "at 1200 racks — today's hardware holds Opera's rules.");
  return 0;
}
