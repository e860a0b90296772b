#include "lp/pair_lp.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

namespace mm::lp {

namespace {

using Flow = std::int64_t;

/// The capacity of a hard arc. No flow comes near it: the total supply is
/// at most the variable count plus every soft capacity.
constexpr Flow kHard = std::numeric_limits<Flow>::max() / 4;

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

struct Arc {
  std::size_t to = 0;
  double cost = 0.0;
  Flow residual = 0;
};

/// The residual graph of the double cover. Node 0 is the reference x0,
/// node 1 + 2i is u_i and node 2 + 2i is v_i.
struct Cover {
  explicit Cover(std::size_t nodes) : out(nodes), potential(nodes, 0.0), excess(nodes, 0) {}

  /// x_from - x_to <= cost. Arc e's reverse is e ^ 1.
  void add_arc(std::size_t from, std::size_t to, double cost, Flow capacity) {
    out[from].push_back(arcs.size());
    arcs.push_back({to, cost, capacity});
    out[to].push_back(arcs.size());
    arcs.push_back({from, -cost, 0});
  }

  [[nodiscard]] double reduced_cost(std::size_t e) const {
    return arcs[e].cost + potential[arcs[e ^ 1].to] - potential[arcs[e].to];
  }

  void push(std::size_t e, Flow amount) {
    arcs[e].residual -= amount;
    arcs[e ^ 1].residual += amount;
    excess[arcs[e ^ 1].to] -= amount;
    excess[arcs[e].to] += amount;
  }

  std::vector<Arc> arcs;
  std::vector<std::vector<std::size_t>> out;
  /// Node potentials pi; x = -pi is the cover LP's solution.
  std::vector<double> potential;
  std::vector<Flow> excess;
};

}  // namespace

std::vector<double> solve(const PairLp& lp) {
  const std::size_t n = lp.variables;
  if (n == 0) return {};
  const auto u = [](std::size_t i) { return 1 + 2 * i; };
  const auto v = [](std::size_t i) { return 2 + 2 * i; };

  // Potentials start at r_i = half the longest hard row through i, a point
  // that meets every hard row (d/2 + d/2 >= d) and the box (d <= 2 cap).
  std::vector<double> start(n, 0.0);
  for (const PairRow& row : lp.at_least) {
    if (row.bound > 2.0 * lp.cap) continue;
    start[row.i] = std::max(start[row.i], row.bound / 2.0);
    start[row.j] = std::max(start[row.j], row.bound / 2.0);
  }

  // Supply +1 at every u_i and -1 at every v_i: the objective sum(u - v).
  Cover g(2 * n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    g.add_arc(u(i), 0, lp.cap, kHard);  // u_i <= cap
    g.add_arc(0, u(i), 0.0, kHard);     // u_i >= 0
    g.add_arc(0, v(i), lp.cap, kHard);  // v_i >= -cap
    g.add_arc(v(i), 0, 0.0, kHard);     // v_i <= 0
    g.excess[u(i)] = 1;
    g.excess[v(i)] = -1;
    g.potential[u(i)] = -start[i];
    g.potential[v(i)] = start[i];
  }
  for (const PairRow& row : lp.at_most) {
    g.add_arc(u(row.i), v(row.j), row.bound, lp.at_most_penalty);
    g.add_arc(u(row.j), v(row.i), row.bound, lp.at_most_penalty);
  }
  for (const PairRow& row : lp.at_least) {
    const Flow capacity = row.bound <= 2.0 * lp.cap ? kHard : lp.at_least_penalty;
    g.add_arc(v(row.i), u(row.j), -row.bound, capacity);
    g.add_arc(v(row.j), u(row.i), -row.bound, capacity);
  }

  // Only soft arcs can price below zero at the start; saturating them
  // leaves every residual arc with a non-negative reduced cost.
  for (std::size_t e = 0; e < g.arcs.size(); e += 2) {
    if (g.reduced_cost(e) < 0.0) g.push(e, g.arcs[e].residual);
  }

  // Successive shortest paths: Dijkstra on reduced costs from every node
  // with excess settles the nearest deficit, potentials advance by the
  // distances (capped at the deficit's), and one path carries what it can.
  // x0 links every node both ways on hard arcs, so a deficit is always
  // reached.
  const std::size_t nodes = g.out.size();
  std::vector<double> dist(nodes);
  std::vector<std::size_t> via(nodes);  // the arc a shortest path enters by
  using Entry = std::pair<double, std::size_t>;
  for (;;) {
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::fill(dist.begin(), dist.end(), std::numeric_limits<double>::infinity());
    for (std::size_t a = 0; a < nodes; ++a) {
      if (g.excess[a] <= 0) continue;
      dist[a] = 0.0;
      via[a] = kNone;
      heap.push({0.0, a});
    }
    if (heap.empty()) break;
    std::size_t sink = kNone;
    for (;;) {
      const auto [d, a] = heap.top();
      heap.pop();
      if (d > dist[a]) continue;
      if (g.excess[a] < 0) {
        sink = a;
        break;
      }
      for (const std::size_t e : g.out[a]) {
        if (g.arcs[e].residual == 0) continue;
        const std::size_t b = g.arcs[e].to;
        const double candidate = d + std::max(0.0, g.reduced_cost(e));
        if (candidate < dist[b]) {
          dist[b] = candidate;
          via[b] = e;
          heap.push({candidate, b});
        }
      }
    }
    for (std::size_t a = 0; a < nodes; ++a) g.potential[a] += std::min(dist[a], dist[sink]);

    Flow amount = -g.excess[sink];
    std::size_t source = sink;
    for (; via[source] != kNone; source = g.arcs[via[source] ^ 1].to) {
      amount = std::min(amount, g.arcs[via[source]].residual);
    }
    amount = std::min(amount, g.excess[source]);
    for (std::size_t a = sink; via[a] != kNone; a = g.arcs[via[a] ^ 1].to) {
      g.push(via[a], amount);
    }
  }

  // x = -pi, and r_i = (u_i - v_i) / 2.
  std::vector<double> r(n);
  for (std::size_t i = 0; i < n; ++i) r[i] = (g.potential[v(i)] - g.potential[u(i)]) / 2.0;
  return r;
}

}  // namespace mm::lp
