#include "topo/opera_topology.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sim/parallel.h"

namespace opera::topo {

std::vector<int> acceptance_slices(Vertex num_racks, int num_switches) {
  // Testing every slice is O(N^2) BFS per slice; beyond a few hundred
  // racks sample instead. A step sharing a factor with u would only ever
  // land on the down phases of u / gcd(step, u) switches.
  int step = 1;
  if (num_racks > 256) {
    step = std::max(1, static_cast<int>(num_racks) / (4 * num_switches));
    while (std::gcd(step, num_switches) != 1) ++step;
  }
  std::vector<int> out;
  for (int s = 0; s < static_cast<int>(num_racks); s += step) out.push_back(s);
  return out;
}

FailureSet FailureSet::none(Vertex num_racks, int num_switches) {
  FailureSet f;
  f.rack_failed.assign(static_cast<std::size_t>(num_racks), false);
  f.switch_failed.assign(static_cast<std::size_t>(num_switches), false);
  f.uplink_failed.assign(static_cast<std::size_t>(num_racks),
                         std::vector<bool>(static_cast<std::size_t>(num_switches), false));
  return f;
}

bool FailureSet::any() const {
  for (const bool b : rack_failed) if (b) return true;
  for (const bool b : switch_failed) if (b) return true;
  for (const auto& row : uplink_failed) {
    for (const bool b : row) if (b) return true;
  }
  return false;
}

OperaTopology::OperaTopology(const OperaParams& params, RotorSchedule schedule)
    : params_(params), schedule_(schedule) {
  const Vertex n = params_.num_racks;
  const int u = params_.num_switches;
  if (n < 2 || u < 1) {
    throw std::invalid_argument("OperaTopology: need at least 2 racks and 1 switch");
  }
  if (n % u != 0) {
    throw std::invalid_argument(
        "OperaTopology: num_racks must be divisible by num_switches so each "
        "rotor switch gets an equal share of the N matchings");
  }
  // Design-time generate-and-test (paper §3.3): a random factorization is
  // an expander in every slice with high probability. We accept a
  // realization once every (sampled) slice is connected and the worst slice
  // diameter meets an expander-like bound; otherwise we draw another
  // realization, keeping the best seen as a fallback.
  constexpr int kMaxRealizations = 24;
  // A (u-1)-matching union behaves like a (u-1)-regular random graph
  // (sometimes (u-2) when the identity matching is active); its diameter
  // should be near log_{u-2}(N). Allow two hops of slack, floor of 5.
  const double base = std::max(2, u - 2);
  const int diameter_bound =
      std::max(5, static_cast<int>(std::ceil(std::log(static_cast<double>(n)) /
                                             std::log(base))) + 2);

  std::vector<Matching> best_matchings;
  std::vector<std::vector<std::size_t>> best_assignment;
  int best_worst = std::numeric_limits<int>::max();

  for (int attempt = 0; attempt < kMaxRealizations; ++attempt) {
    sim::Rng rng(params_.seed + static_cast<std::uint64_t>(attempt) * 0x51ED2701);
    matchings_ = random_factorization(n, rng);
    assert(is_complete_factorization(matchings_));

    // Randomly deal the N matchings to the u switches, N/u each, then keep
    // the dealt order as each switch's cycling order (paper: "randomly
    // choose the order in which each switch cycles through its matchings").
    const auto deal = rng.permutation(matchings_.size());
    const std::size_t per_switch = matchings_.size() / static_cast<std::size_t>(u);
    assignment_.assign(static_cast<std::size_t>(u), {});
    for (std::size_t i = 0; i < deal.size(); ++i) {
      assignment_[i / per_switch].push_back(deal[i]);
    }
    index_circuits();
    if (schedule_ == RotorSchedule::kUnison) return;

    // The sampled slices are independent BFS sweeps; reduce them in slice
    // order so the verdict does not depend on the thread count.
    const std::vector<int> tested = acceptance_slices(n, u);
    std::vector<PathStats> stats(tested.size());
    sim::parallel_for(tested.size(), [&](std::size_t i) {
      stats[i] = all_pairs_path_stats(slice_graph(tested[i]));
    });
    bool connected = true;
    int worst = 0;
    for (const PathStats& st : stats) {
      if (st.disconnected_pairs > 0) {
        connected = false;
        break;
      }
      worst = std::max(worst, static_cast<int>(st.worst));
    }
    if (!connected) continue;
    if (worst <= diameter_bound) return;  // accepted
    if (worst < best_worst) {
      best_worst = worst;
      best_matchings = matchings_;
      best_assignment = assignment_;
    }
  }
  if (best_matchings.empty()) {
    throw std::runtime_error(
        "OperaTopology: no realization with fully-connected slices found; "
        "increase num_switches (u) relative to num_racks");
  }
  matchings_ = std::move(best_matchings);
  assignment_ = std::move(best_assignment);
  index_circuits();
}

void OperaTopology::index_circuits() {
  const auto n = static_cast<std::size_t>(params_.num_racks);
  const int u = params_.num_switches;
  peers_.clear();
  peers_.reserve(matchings_.size() * n);
  for (const Matching& m : matchings_) peers_.insert(peers_.end(), m.begin(), m.end());

  const int slices = num_slices();
  circuits_.resize(static_cast<std::size_t>(slices) * static_cast<std::size_t>(u));
  for (int slice = 0; slice < slices; ++slice) {
    for (int sw = 0; sw < u; ++sw) {
      const auto& mine = assignment_[static_cast<std::size_t>(sw)];
      // Unison: one matching per slice. Offset: switch sw reconfigures
      // during slices {sw, sw+u, sw+2u, ...} and its matching advances
      // when a reconfiguration completes, so by `slice` it has advanced
      // floor((slice - sw - 1)/u) + 1 times (0 if slice <= sw).
      int advances = slice;
      if (schedule_ == RotorSchedule::kOffset) {
        advances = slice > sw ? (slice - sw - 1) / u + 1 : 0;
      }
      circuits_[circuit_slot(sw, slice)] = static_cast<std::uint32_t>(
          mine[static_cast<std::size_t>(advances) % mine.size()]);
    }
  }
}

Graph OperaTopology::slice_graph(int slice, const FailureSet* failures,
                                 bool include_reconfiguring) const {
  const Vertex n = params_.num_racks;
  const int u = params_.num_switches;
  Graph g(n, u);
  const int down = reconfiguring_switch(slice);
  for (int sw = 0; sw < u; ++sw) {
    if (sw == down && !include_reconfiguring) continue;
    if (failures != nullptr && failures->switch_failed[static_cast<std::size_t>(sw)]) continue;
    const auto& m = matchings_[matching_index(sw, slice)];
    for (Vertex a = 0; a < n; ++a) {
      const Vertex b = m[static_cast<std::size_t>(a)];
      if (a >= b) continue;  // self-loops and double-visits
      if (failures != nullptr) {
        if (failures->rack_failed[static_cast<std::size_t>(a)] ||
            failures->rack_failed[static_cast<std::size_t>(b)] ||
            failures->uplink_failed[static_cast<std::size_t>(a)][static_cast<std::size_t>(sw)] ||
            failures->uplink_failed[static_cast<std::size_t>(b)][static_cast<std::size_t>(sw)]) {
          continue;
        }
      }
      g.add_edge(a, b);
    }
  }
  return g;
}

EcmpTable OperaTopology::slice_routes(int slice, const FailureSet* failures) const {
  return all_pairs_ecmp_next_hops(slice_graph(slice, failures));
}

void OperaTopology::slice_routes(int slice, const FailureSet* failures,
                                 EcmpTable& table) const {
  all_pairs_ecmp_next_hops(slice_graph(slice, failures), table);
}

bool OperaTopology::all_slices_connected() const {
  for (int s = 0; s < num_slices(); ++s) {
    if (!is_connected(slice_graph(s))) return false;
  }
  return true;
}

std::vector<int> OperaTopology::direct_slices(Vertex src, Vertex dst) const {
  std::vector<int> out;
  const int u = params_.num_switches;
  for (int s = 0; s < num_slices(); ++s) {
    const int down = reconfiguring_switch(s);
    for (int sw = 0; sw < u; ++sw) {
      if (sw == down) continue;
      if (circuit_peer(sw, src, s) == dst) {
        out.push_back(s);
        break;
      }
    }
  }
  return out;
}

}  // namespace opera::topo
