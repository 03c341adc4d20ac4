#include "fluid/throughput.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "sim/rng.h"

namespace opera::fluid {

double Demand::operator()(int a, int b) const {
  const auto& row = rows_[static_cast<std::size_t>(a)];
  const auto it = std::lower_bound(
      row.begin(), row.end(), b,
      [](const Entry& e, int col) { return e.col < col; });
  return (it != row.end() && it->col == b) ? it->value : 0.0;
}

void Demand::add(int a, int b, double bps) {
  if (a == b) return;
  auto& row = rows_[static_cast<std::size_t>(a)];
  const auto it = std::lower_bound(
      row.begin(), row.end(), b,
      [](const Entry& e, int col) { return e.col < col; });
  if (it != row.end() && it->col == b) {
    it->value += bps;
  } else {
    row.insert(it, Entry{static_cast<std::int32_t>(b), bps});
  }
}

double Demand::total() const {
  // Row-major, ascending-column: the dense accumulation order.
  double sum = 0.0;
  for (const auto& row : rows_) {
    for (const Entry& e : row) sum += e.value;
  }
  return sum;
}

double Demand::row_sum(int a) const {
  double sum = 0.0;
  for (const Entry& e : rows_[static_cast<std::size_t>(a)]) sum += e.value;
  return sum;
}

double Demand::col_sum(int b) const {
  double sum = 0.0;
  for (const auto& row : rows_) {
    const auto it = std::lower_bound(
        row.begin(), row.end(), b,
        [](const Entry& e, int col) { return e.col < col; });
    if (it != row.end() && it->col == b) sum += it->value;
  }
  return sum;
}

std::size_t Demand::nnz() const {
  std::size_t count = 0;
  for (const auto& row : rows_) count += row.size();
  return count;
}

std::size_t Demand::memory_bytes() const {
  std::size_t bytes = sizeof(Demand) + rows_.capacity() * sizeof(rows_[0]);
  for (const auto& row : rows_) bytes += row.capacity() * sizeof(Entry);
  return bytes;
}

Demand Demand::all_to_all(int num_racks, int hosts_per_rack, double host_rate_bps) {
  Demand d(num_racks);
  const double per_pair =
      hosts_per_rack * host_rate_bps / static_cast<double>(num_racks - 1);
  for (int a = 0; a < num_racks; ++a) {
    for (int b = 0; b < num_racks; ++b) {
      if (a != b) d.add(a, b, per_pair);
    }
  }
  return d;
}

Demand Demand::hotrack(int num_racks, int hosts_per_rack, double host_rate_bps) {
  assert(num_racks >= 2);
  Demand d(num_racks);
  d.add(0, 1, hosts_per_rack * host_rate_bps);
  return d;
}

Demand Demand::permutation(int num_racks, int hosts_per_rack, double host_rate_bps,
                           unsigned seed) {
  // Host-level permutation: each host sends at full rate to one host in a
  // random other rack.
  Demand d(num_racks);
  sim::Rng rng(seed);
  for (int a = 0; a < num_racks; ++a) {
    for (int h = 0; h < hosts_per_rack; ++h) {
      int b = static_cast<int>(rng.index(static_cast<std::size_t>(num_racks)));
      while (b == a) b = static_cast<int>(rng.index(static_cast<std::size_t>(num_racks)));
      d.add(a, b, host_rate_bps);
    }
  }
  return d;
}

Demand Demand::skew(int num_racks, int hosts_per_rack, double host_rate_bps,
                    double active_fraction, unsigned seed) {
  Demand d(num_racks);
  sim::Rng rng(seed);
  const auto active = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::llround(active_fraction * num_racks)));
  const auto racks =
      rng.sample_without_replacement(static_cast<std::size_t>(num_racks), active);
  const double per_pair =
      hosts_per_rack * host_rate_bps / static_cast<double>(active - 1);
  for (const std::size_t a : racks) {
    for (const std::size_t b : racks) {
      if (a != b) d.add(static_cast<int>(a), static_cast<int>(b), per_pair);
    }
  }
  return d;
}

double clos_throughput(const Demand& demand, int hosts_per_rack, double host_rate_bps,
                       double oversubscription) {
  const double up_capacity = hosts_per_rack * host_rate_bps / oversubscription;
  double theta = std::numeric_limits<double>::infinity();
  for (int r = 0; r < demand.num_racks(); ++r) {
    const double out = demand.row_sum(r);
    const double in = demand.col_sum(r);
    if (out > 0.0) theta = std::min(theta, up_capacity / out);
    if (in > 0.0) theta = std::min(theta, up_capacity / in);
    // Host links bound everything at 1.0x offered load by construction.
    if (out > 0.0) theta = std::min(theta, hosts_per_rack * host_rate_bps / out);
    if (in > 0.0) theta = std::min(theta, hosts_per_rack * host_rate_bps / in);
  }
  return std::isinf(theta) ? 0.0 : theta;
}

namespace {

// Feasibility of theta*demand under one-hop-direct plus two-hop VLB relay
// routing, on aggregate per-rack budgets: each pair's demand beyond its
// direct capacity `pair_cap(a, b)` must fit the fabric's relay capacity,
// the sum over racks of min(spare out, spare in) against each rack's
// budget `rack_budget(r)`. Without `relay`, no pair may exceed its direct
// capacity. Entries are visited in the dense row-major order.
template <class PairCap, class RackBudget>
bool vlb_feasible(const Demand& demand, double theta, bool relay, PairCap pair_cap,
                  RackBudget rack_budget) {
  const int n = demand.num_racks();
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  std::vector<double> in(static_cast<std::size_t>(n), 0.0);
  double total_excess = 0.0;
  for (int a = 0; a < n; ++a) {
    for (const Demand::Entry& e : demand.row(a)) {
      const double want = theta * e.value;
      if (want <= 0.0) continue;
      total_excess += std::max(0.0, want - pair_cap(a, e.col));
      out[static_cast<std::size_t>(a)] += want;     // first hop always leaves a
      in[static_cast<std::size_t>(e.col)] += want;  // last hop always enters b
    }
  }
  double relay_capacity = 0.0;
  for (int r = 0; r < n; ++r) {
    const double budget = rack_budget(r);
    const double spare_out = budget - out[static_cast<std::size_t>(r)];
    const double spare_in = budget - in[static_cast<std::size_t>(r)];
    if (spare_out < 0.0 || spare_in < 0.0) return false;
    relay_capacity += std::min(spare_out, spare_in);
  }
  return total_excess <= (relay ? relay_capacity : 0.0);
}

// The largest theta `feasible` accepts: double until infeasible (bounded:
// rack budgets cap throughput), then 60 bisection steps.
template <class Feasible>
double max_feasible_theta(Feasible feasible) {
  double lo = 0.0;
  double hi = 1.0;
  while (feasible(hi) && hi < 1e6) hi *= 2.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (feasible(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace

double expander_throughput(const Demand& demand, const topo::Graph& g,
                           double link_rate_bps) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  assert(static_cast<int>(n) == demand.num_racks());
  // Directed edge loads under ECMP splitting; edges indexed by (src,
  // adjacency position).
  std::vector<std::vector<double>> load(n);
  for (std::size_t v = 0; v < n; ++v) {
    load[v].assign(g.neighbors(static_cast<topo::Vertex>(v)).size(), 0.0);
  }

  std::vector<double> node_flow(n);
  std::vector<topo::Vertex> order(n);
  for (int b = 0; b < demand.num_racks(); ++b) {
    if (demand.col_sum(b) <= 0.0) continue;
    const auto dist = bfs_distances(g, static_cast<topo::Vertex>(b));
    std::fill(node_flow.begin(), node_flow.end(), 0.0);
    for (int a = 0; a < demand.num_racks(); ++a) {
      node_flow[static_cast<std::size_t>(a)] = demand(a, b);
    }
    // Drain nodes farthest-first so all upstream flow has arrived before a
    // node splits its aggregate over the shortest-path DAG.
    for (std::size_t v = 0; v < n; ++v) order[v] = static_cast<topo::Vertex>(v);
    std::sort(order.begin(), order.end(), [&](topo::Vertex x, topo::Vertex y) {
      return dist[static_cast<std::size_t>(x)] > dist[static_cast<std::size_t>(y)];
    });
    for (const topo::Vertex v : order) {
      const double f = node_flow[static_cast<std::size_t>(v)];
      if (f <= 0.0 || v == static_cast<topo::Vertex>(b)) continue;
      const auto& nbrs = g.neighbors(v);
      int closer = 0;
      for (const topo::Vertex w : nbrs) {
        if (dist[static_cast<std::size_t>(w)] == dist[static_cast<std::size_t>(v)] - 1) {
          ++closer;
        }
      }
      assert(closer > 0 && "demand between disconnected racks");
      const double share = f / closer;
      for (std::size_t j = 0; j < nbrs.size(); ++j) {
        const topo::Vertex w = nbrs[j];
        if (dist[static_cast<std::size_t>(w)] == dist[static_cast<std::size_t>(v)] - 1) {
          load[static_cast<std::size_t>(v)][j] += share;
          node_flow[static_cast<std::size_t>(w)] += share;
        }
      }
    }
  }

  double max_load = 0.0;
  for (const auto& row : load) {
    for (const double l : row) max_load = std::max(max_load, l);
  }
  const double ecmp = max_load > 0.0 ? link_rate_bps / max_load : 0.0;
  const double vlb = max_feasible_theta([&](double theta) {
    return vlb_feasible(
        demand, theta, true,
        [&](int a, int b) {
          return g.has_edge(static_cast<topo::Vertex>(a), static_cast<topo::Vertex>(b))
                     ? link_rate_bps
                     : 0.0;
        },
        [&](int r) { return g.degree(static_cast<topo::Vertex>(r)) * link_rate_bps; });
  });
  return std::max(ecmp, vlb);
}

double rotor_throughput(const Demand& demand, const RotorModelParams& p) {
  assert(p.num_racks == demand.num_racks());
  if (demand.total() <= 0.0) return 0.0;
  const double active_uplinks = p.uplinks * p.active_fraction;
  const double pair_cap =
      active_uplinks / static_cast<double>(p.num_racks) * p.link_rate_bps * p.duty_cycle;
  const double rack_budget = active_uplinks * p.link_rate_bps * p.duty_cycle;
  return max_feasible_theta([&](double theta) {
    return vlb_feasible(
        demand, theta, p.enable_vlb, [pair_cap](int, int) { return pair_cap; },
        [rack_budget](int) { return rack_budget; });
  });
}

}  // namespace opera::fluid
