#include "fluid/rotor_rate_lb.h"

#include <algorithm>
#include <cassert>

namespace opera::fluid {

RotorRateLb::RotorRateLb(const topo::OperaTopology& topo, const Params& params)
    : topo_(topo),
      params_(params),
      live_(static_cast<std::size_t>(topo.num_racks()) *
                static_cast<std::size_t>(topo.num_switches()),
            -1),
      live_count_(static_cast<std::size_t>(topo.num_racks()), 0),
      budget_sums_(static_cast<std::size_t>(topo.num_switches()) + 1, 0.0) {
  const double circuit_rate = params_.link_rate_bps * params_.duty;
  for (std::size_t c = 1; c < budget_sums_.size(); ++c) {
    budget_sums_[c] = budget_sums_[c - 1] + circuit_rate;
  }
}

void RotorRateLb::refresh_row(int slice, const topo::FailureSet* failures) {
  const bool same_failures = failures == nullptr
                                 ? !row_failures_.has_value()
                                 : row_failures_.has_value() && *row_failures_ == *failures;
  if (!same_failures) {
    row_failures_ = failures == nullptr ? std::nullopt : std::optional(*failures);
  }
  const bool all = row_slice_ < 0 || !same_failures;
  const auto n = static_cast<std::size_t>(topo_.num_racks());
  const int u = topo_.num_switches();
  const auto su = static_cast<std::size_t>(u);
  for (int sw = 0; sw < u; ++sw) {
    if (!all && topo_.matching_index(sw, slice) == topo_.matching_index(sw, row_slice_) &&
        (sw == topo_.reconfiguring_switch(slice)) ==
            (sw == topo_.reconfiguring_switch(row_slice_))) {
      continue;
    }
    for (std::size_t r = 0; r < n; ++r) {
      const topo::Vertex peer =
          topo_.live_peer(sw, static_cast<topo::Vertex>(r), slice, failures);
      topo::Vertex& cell = live_[r * su + static_cast<std::size_t>(sw)];
      live_count_[r] += static_cast<int>(peer >= 0) - static_cast<int>(cell >= 0);
      cell = peer;
    }
  }
  row_slice_ = slice;
}

std::vector<GroupRate> RotorRateLb::allocate(
    int slice, const std::vector<GroupDemand>& groups,
    const topo::FailureSet* failures, RateUsage* usage) {
  const auto n = static_cast<std::size_t>(topo_.num_racks());
  const auto su = static_cast<std::size_t>(topo_.num_switches());
  const double circuit_rate = params_.link_rate_bps * params_.duty;
  const double host_cap = params_.hosts_per_rack * params_.link_rate_bps;

  // The slice's live circuits (live_), and each rack's circuit budget:
  // one circuit_rate per live uplink. Matchings are involutions, so the
  // same budget bounds both egress and ingress.
  refresh_row(slice, failures);
  std::vector<double> budget(n);
  for (std::size_t r = 0; r < n; ++r) {
    budget[r] = budget_sums_[static_cast<std::size_t>(live_count_[r])];
  }

  // NIC fair shares: every flow a rack sources (sinks) gets an even split
  // of its aggregate host capacity.
  std::vector<std::int64_t> out_flows(n, 0);
  std::vector<std::int64_t> in_flows(n, 0);
  for (const GroupDemand& g : groups) {
    out_flows[static_cast<std::size_t>(g.src_rack)] += g.flows;
    in_flows[static_cast<std::size_t>(g.dst_rack)] += g.flows;
  }

  std::vector<GroupRate> rates(groups.size());
  std::vector<double> used_up(n, 0.0);
  std::vector<double> used_down(n, 0.0);
  // Unmet per-flow demand (NIC share minus direct share) per group, and
  // its per-rack aggregates — the VLB "want" sides.
  std::vector<double> headroom(groups.size(), 0.0);
  std::vector<double> vlb_out_want(n, 0.0);
  std::vector<double> vlb_in_want(n, 0.0);
  double total_excess = 0.0;

  for (std::size_t i = 0; i < groups.size(); ++i) {
    const GroupDemand& g = groups[i];
    assert(g.flows > 0);
    const auto a = static_cast<std::size_t>(g.src_rack);
    const auto b = static_cast<std::size_t>(g.dst_rack);
    // One flow never exceeds a single host NIC, even when the rack
    // aggregate would allow it (out_flows < hosts_per_rack).
    const double nic_share = std::min(
        params_.link_rate_bps,
        std::min(host_cap / static_cast<double>(out_flows[a]),
                 host_cap / static_cast<double>(in_flows[b])));
    if (g.src_rack == g.dst_rack) {
      // Intra-rack: host -> ToR -> host, never on circuits.
      rates[i].per_flow = nic_share;
      continue;
    }
    int circuits = 0;  // live a<->b circuits
    for (std::size_t sw = 0; sw < su; ++sw) {
      if (live_[a * su + sw] == g.dst_rack) ++circuits;
    }
    const double direct_cap = circuits * circuit_rate;
    const double direct_per_flow = direct_cap / static_cast<double>(g.flows);
    const double base = std::min(nic_share, direct_per_flow);
    rates[i].direct_share = base;
    rates[i].per_flow = base;
    used_up[a] += static_cast<double>(g.flows) * base;
    used_down[b] += static_cast<double>(g.flows) * base;
    const double h = nic_share - base;
    if (h > 0.0) {
      headroom[i] = h;
      const double want = static_cast<double>(g.flows) * h;
      vlb_out_want[a] += want;
      vlb_in_want[b] += want;
      total_excess += want;
    }
  }

  // VLB pass: the relay pool is the fabric's circuit capacity left over
  // after direct traffic. Every VLB deliver-unit consumes two pool units
  // — one at the sender/receiver edge, one at the relay (the paper's 2x
  // byte tax) — so grants fill unmet demand at pool/2, proportional to
  // each group's excess and clamped per rack so no budget is exceeded.
  double relay_pool = 0.0;
  double relay_used = 0.0;
  if (params_.enable_vlb && total_excess > 0.0) {
    for (std::size_t r = 0; r < n; ++r) {
      const double spare_up = std::max(0.0, budget[r] - used_up[r]);
      const double spare_down = std::max(0.0, budget[r] - used_down[r]);
      relay_pool += std::min(spare_up, spare_down);
    }
    const double fill = std::min(1.0, relay_pool / (2.0 * total_excess));
    if (fill > 0.0) {
      // Sender/receiver-side scale factors so the granted VLB rate fits
      // the racks' remaining circuit budgets.
      std::vector<double> scale_up(n, 1.0);
      std::vector<double> scale_down(n, 1.0);
      for (std::size_t r = 0; r < n; ++r) {
        const double want_up = vlb_out_want[r] * fill;
        if (want_up > 0.0) {
          scale_up[r] = std::min(
              1.0, std::max(0.0, budget[r] - used_up[r]) / want_up);
        }
        const double want_down = vlb_in_want[r] * fill;
        if (want_down > 0.0) {
          scale_down[r] = std::min(
              1.0, std::max(0.0, budget[r] - used_down[r]) / want_down);
        }
      }
      for (std::size_t i = 0; i < groups.size(); ++i) {
        if (headroom[i] <= 0.0) continue;
        const GroupDemand& g = groups[i];
        const auto a = static_cast<std::size_t>(g.src_rack);
        const auto b = static_cast<std::size_t>(g.dst_rack);
        const double grant =
            headroom[i] * fill * std::min(scale_up[a], scale_down[b]);
        rates[i].vlb_share = grant;
        rates[i].per_flow += grant;
        const double group_rate = static_cast<double>(g.flows) * grant;
        used_up[a] += group_rate;
        used_down[b] += group_rate;
        relay_used += group_rate;
      }
    }
  }

  if (usage != nullptr) {
    usage->budget = std::move(budget);
    usage->used_up = std::move(used_up);
    usage->used_down = std::move(used_down);
    usage->relay_pool = relay_pool;
    usage->relay_used = relay_used;
  }
  return rates;
}

}  // namespace opera::fluid
