#include "core/ktuple_search.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

namespace eewa::core {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

constexpr double kEps = 1e-9;

/// Cubic proxy power of one active core at rung j of a homogeneous
/// table (P ∝ f·V² with V roughly ∝ f), with the slowdown F_0/F_j
/// recovered from the CC table itself. A single column is not enough:
/// it may be zero (idle class) and, with per-class memory-aware alphas,
/// CC[j][i]/CC[0][i] = α_i + (1-α_i)·F_0/F_j understates the true
/// slowdown for any α_i > 0. Scan every usable column and keep the
/// largest ratio — the least memory-bound class, the tightest lower
/// bound on the true F_0/F_j.
double cubic_proxy_power(const CCTable& cc, std::size_t j) {
  double slowdown = 0.0;
  for (std::size_t i = 0; i < cc.cols(); ++i) {
    if (cc.at(j, i) > 0.0 && cc.at(0, i) > 0.0) {
      slowdown = std::max(slowdown, cc.at(j, i) / cc.at(0, i));
    }
  }
  const double rel = slowdown > 0.0
                         ? 1.0 / slowdown
                         : 1.0 / (1.0 + static_cast<double>(j));
  return rel * rel * rel;
}

/// What every searcher sees of the machine behind a CC table: each
/// row's active power and the core pool it draws from, and each pool's
/// capacity and parking power. A homogeneous table is one pool of
/// `total_cores` cores whose leftovers park at the slowest rung; a typed
/// table has one pool per core type, whose leftovers park at that
/// type's own slowest rung — a LITTLE core cannot be parked on the big
/// cluster's ladder. This is the only code that reads cc.topology() or
/// the caller's power model.
struct CapacityView {
  std::vector<std::size_t> pool;    ///< pool per row
  std::vector<long double> cap;     ///< cores per pool
  std::vector<double> p;            ///< active power per row (priced)
  std::vector<double> park;         ///< parking power per pool (priced)
  /// The DP's scalar budget: total_cores, or less when the pools hold
  /// fewer cores between them.
  long double limit = 0.0L;
  mutable std::vector<long double> scratch;  ///< energy()'s pool usage

  /// Capacity only: what the descents and the tuple audit read.
  CapacityView(const CCTable& cc, std::size_t total_cores) {
    pool.assign(cc.rows(), 0);
    if (const MachineTopology* topo = cc.topology()) {
      for (std::size_t j = 0; j < cc.rows(); ++j) pool[j] = topo->row_type(j);
      for (std::size_t t = 0; t < topo->type_count(); ++t) {
        cap.push_back(static_cast<long double>(topo->type(t).count));
      }
    } else {
      cap.push_back(static_cast<long double>(total_cores));
    }
    long double pooled = 0.0L;
    for (const long double c : cap) pooled += c;
    limit = std::min(static_cast<long double>(total_cores), pooled);
    scratch.resize(cap.size());
  }

  /// Capacity and power: what energy() and the DP read.
  CapacityView(const CCTable& cc, std::size_t total_cores,
               const energy::PowerModel* model)
      : CapacityView(cc, total_cores) {
    const std::size_t r = cc.rows();
    p.resize(r);
    if (const MachineTopology* topo = cc.topology()) {
      // Typed tables carry per-type power (models or proxy); a
      // caller-supplied homogeneous model cannot price rows of different
      // core types and is ignored.
      for (std::size_t j = 0; j < r; ++j) p[j] = topo->row_active_w(j);
      for (std::size_t t = 0; t < topo->type_count(); ++t) {
        park.push_back(topo->row_park_w(topo->slowest_row_of_type(t)));
      }
      return;
    }
    // With a model, leftover cores sit idle/halted, exactly as
    // EnergyAccount bills them; the proxy has no idle curve and keeps the
    // active estimate.
    for (std::size_t j = 0; j < r; ++j) {
      p[j] = model != nullptr ? model->core_power_w(j, /*active=*/true)
                              : cubic_proxy_power(cc, j);
    }
    park.push_back(model != nullptr
                       ? model->core_power_w(r - 1, /*active=*/false)
                       : p[r - 1]);
  }

  std::size_t pools() const { return cap.size(); }

  /// Batch energy of a full tuple: claimed demand at its rows' active
  /// power, each pool's unclaimed cores at its parking power. `demand(j,
  /// i)` supplies class i's demand at row j. Widened accumulators: at
  /// k=256 a plain double running sum makes the result depend on column
  /// order at the 1e-16 scale, which is enough to flip the 1e-9 tie
  /// window between otherwise identical searches. The accumulation order
  /// (classes, then pools ascending) is a contract: every searcher's
  /// energy is this function's, bit for bit.
  template <typename Demand>
  double energy(const std::vector<std::size_t>& tuple, Demand&& demand,
                long double* used_out = nullptr) const {
    std::fill(scratch.begin(), scratch.end(), 0.0L);
    long double used = 0.0L;
    long double e = 0.0L;
    for (std::size_t i = 0; i < tuple.size(); ++i) {
      const double n = demand(tuple[i], i);
      used += n;
      scratch[pool[tuple[i]]] += n;
      e += static_cast<long double>(n) * p[tuple[i]];
    }
    for (std::size_t t = 0; t < cap.size(); ++t) {
      if (cap[t] > scratch[t]) {
        e += (cap[t] - scratch[t]) * static_cast<long double>(park[t]);
      }
    }
    if (used_out != nullptr) *used_out = used;
    return static_cast<double>(e);
  }
};

}  // namespace

double proxy_rung_power(const CCTable& cc, std::size_t j) {
  return CapacityView(cc, 0, nullptr).p.at(j);
}

double tuple_energy_estimate(const CCTable& cc,
                             const std::vector<std::size_t>& tuple,
                             std::size_t total_cores,
                             const energy::PowerModel* model) {
  return CapacityView(cc, total_cores, model)
      .energy(tuple, [&](std::size_t j, std::size_t i) {
        return cc.demand(j, i);
      });
}

namespace {

/// A validated prefix's resource usage: total fractional demand and its
/// per-pool split.
struct PrefixUse {
  long double total = 0.0L;
  std::vector<long double> per_pool;
};

/// Shared tuple and prefix audit: rungs in range, nondecreasing,
/// individually feasible, within capacity (total and per pool). Returns
/// the demand, or nullopt when the tuple cannot stand under `cc`.
std::optional<PrefixUse> prefix_demand(const CCTable& cc,
                                       const CapacityView& view,
                                       std::size_t total_cores,
                                       const std::vector<std::size_t>& prefix) {
  if (prefix.size() > cc.cols()) return std::nullopt;
  PrefixUse use;
  use.per_pool.assign(view.pools(), 0.0L);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (prefix[i] >= cc.rows()) return std::nullopt;
    if (i > 0 && prefix[i] < prefix[i - 1]) return std::nullopt;
    if (!cc.rung_feasible(prefix[i], i)) return std::nullopt;
    const double need = cc.demand(prefix[i], i);
    use.total += need;
    use.per_pool[view.pool[prefix[i]]] += need;
  }
  if (use.total > static_cast<long double>(total_cores) + kEps) {
    return std::nullopt;
  }
  // Rows of a typed table draw from per-type core pools; the total
  // budget alone would let a tuple stack every class on one cluster.
  for (std::size_t t = 0; t < view.pools(); ++t) {
    if (use.per_pool[t] > view.cap[t] + kEps) return std::nullopt;
  }
  return use;
}

}  // namespace

bool tuple_is_valid(const CCTable& cc, const std::vector<std::size_t>& tuple,
                    std::size_t total_cores) {
  return tuple.size() == cc.cols() &&
         prefix_demand(cc, CapacityView(cc, total_cores), total_cores,
                       tuple)
             .has_value();
}

namespace {

/// Shared state for the recursive searchers (Algorithm 1's a[], c_n).
/// Capacity is accounted in fractional core demands, as the paper's
/// Σ CC[a_i][i] <= m constraint does, in total and per core pool.
struct Backtracker {
  const CCTable& cc;
  const CapacityView& view;
  double total_cores;  ///< the view's limit: with one pool, its size too
  bool allow_backtrack;
  std::vector<std::size_t> a;
  // Widened: c_n is repeatedly incremented and decremented along the
  // descent; at k=256 double round-off would accumulate into the 1e-9
  // capacity epsilon.
  long double c_n = 0.0L;
  std::vector<long double> pool_used;
  std::size_t nodes = 0;
  std::size_t node_budget = 0;  ///< 0 = unlimited
  bool aborted = false;
  // Suffix mode: classes [0, start_class) are pinned (already in `a`,
  // their demand in c_n) and the descent begins at start_class with
  // rungs >= lo0.
  std::size_t start_class = 0;
  std::size_t lo0 = 0;

  Backtracker(const CCTable& cc_in, const CapacityView& view_in,
              bool backtrack)
      : cc(cc_in),
        view(view_in),
        total_cores(static_cast<double>(view_in.limit)),
        allow_backtrack(backtrack),
        a(cc_in.cols(), 0),
        pool_used(view_in.pools(), 0.0L) {}

  // Algorithm 1, Select(i, j), plus the critical-path guard: a rung at
  // which even one of the class's tasks would overrun T is rejected.
  bool select(std::size_t i, std::size_t j) {
    if (node_budget != 0 && nodes >= node_budget) {
      aborted = true;
      return false;
    }
    ++nodes;
    if (!cc.rung_feasible(j, i)) return false;
    const double need = cc.demand(j, i);
    if (need + c_n > total_cores + kEps) return false;
    if (view.pools() > 1) {
      // With one pool, c_n is the pool's usage and the check above its
      // budget.
      const std::size_t t = view.pool[j];
      if (need + pool_used[t] > view.cap[t] + kEps) return false;
      pool_used[t] += need;
    }
    a[i] = j;
    c_n += need;
    return true;
  }

  // Algorithm 1, SearchTuple(i).
  bool search(std::size_t i) {
    if (i >= cc.cols()) return true;
    const std::size_t lo = i == start_class ? lo0 : a[i - 1];
    for (std::size_t j = cc.rows(); j-- > lo;) {
      if (select(i, j)) {
        if (search(i + 1)) return true;
        const double need = cc.demand(a[i], i);
        c_n -= need;
        if (view.pools() > 1) pool_used[view.pool[a[i]]] -= need;
        if (!allow_backtrack) return false;
      }
      if (aborted) return false;
      if (j == lo) break;  // size_t guard for the descending loop
    }
    return false;
  }
};

SearchResult run_descent(const CCTable& cc, const CapacityView& view,
                         std::size_t total_cores, bool allow_backtrack,
                         const std::vector<std::size_t>* prefix = nullptr,
                         std::size_t node_budget = 0) {
  const auto start = Clock::now();
  Backtracker bt(cc, view, allow_backtrack);
  bt.node_budget = node_budget;
  SearchResult res;
  if (prefix != nullptr) {
    const auto used0 = prefix_demand(cc, view, total_cores, *prefix);
    if (!used0) {
      res.elapsed_us = elapsed_us_since(start);
      return res;
    }
    std::copy(prefix->begin(), prefix->end(), bt.a.begin());
    bt.c_n = used0->total;
    bt.pool_used = used0->per_pool;
    bt.start_class = prefix->size();
    bt.lo0 = prefix->empty() ? 0 : prefix->back();
  }
  res.found = bt.search(bt.start_class);
  res.nodes_visited = bt.nodes;
  res.aborted = bt.aborted;
  if (res.found) {
    res.tuple = bt.a;
    res.cores_used = static_cast<std::size_t>(
        std::ceil(static_cast<double>(bt.c_n) - kEps));
  }
  res.elapsed_us = elapsed_us_since(start);
  return res;
}

SearchResult run_descent(const CCTable& cc, std::size_t total_cores,
                         bool allow_backtrack,
                         const std::vector<std::size_t>* prefix = nullptr,
                         std::size_t node_budget = 0) {
  const CapacityView view(cc, total_cores);
  return run_descent(cc, view, total_cores, allow_backtrack, prefix,
                     node_budget);
}

}  // namespace

SearchResult search_backtracking(const CCTable& cc, std::size_t total_cores,
                                 std::size_t node_budget) {
  return run_descent(cc, total_cores, /*allow_backtrack=*/true, nullptr,
                     node_budget);
}

SearchResult search_greedy(const CCTable& cc, std::size_t total_cores) {
  return run_descent(cc, total_cores, /*allow_backtrack=*/false);
}

namespace {

SearchResult exhaustive_core(const CCTable& cc, std::size_t total_cores,
                             const energy::PowerModel* model,
                             const std::vector<std::size_t>* prefix) {
  const auto start = Clock::now();
  SearchResult best;
  double best_e = std::numeric_limits<double>::infinity();
  double best_used = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> a(cc.cols(), 0);
  std::size_t nodes = 0;
  const CapacityView view(cc, total_cores, model);
  std::vector<long double> pool_used(view.pools(), 0.0L);
  const auto demand = [&](std::size_t j, std::size_t i) {
    return cc.demand(j, i);
  };

  std::size_t i0 = 0;
  std::size_t lo_init = 0;
  long double used0 = 0.0L;
  if (prefix != nullptr) {
    const auto pd = prefix_demand(cc, view, total_cores, *prefix);
    if (!pd) {
      best.elapsed_us = elapsed_us_since(start);
      return best;
    }
    std::copy(prefix->begin(), prefix->end(), a.begin());
    i0 = prefix->size();
    lo_init = prefix->empty() ? 0 : prefix->back();
    used0 = pd->total;
    pool_used = pd->per_pool;
  }

  // Enumerate all nondecreasing tuples; prune on capacity as we go.
  // Ties on energy break deterministically — fewest cores, then the
  // lexicographically greater (slower) tuple — so differential runs
  // reproduce the same winner regardless of enumeration quirks.
  auto rec = [&](auto&& self, std::size_t i, std::size_t lo,
                 long double used) -> void {
    if (i == cc.cols()) {
      const double e = view.energy(a, demand);
      const double used_d = static_cast<double>(used);
      bool better = e < best_e - kEps;
      if (!better && e <= best_e + kEps) {
        if (used_d < best_used - kEps) {
          better = true;
        } else if (used_d <= best_used + kEps) {
          better = best.found && a > best.tuple;
        }
      }
      if (better) {
        best_e = std::min(best_e, e);
        best_used = used_d;
        best.found = true;
        best.tuple = a;
        best.cores_used =
            static_cast<std::size_t>(std::ceil(used_d - kEps));
      }
      return;
    }
    for (std::size_t j = lo; j < cc.rows(); ++j) {
      ++nodes;
      if (!cc.rung_feasible(j, i)) continue;
      const double need = cc.demand(j, i);
      if (used + need > static_cast<long double>(total_cores) + kEps) {
        continue;
      }
      const std::size_t t = view.pool[j];
      if (pool_used[t] + need > view.cap[t] + kEps) continue;
      a[i] = j;
      pool_used[t] += need;
      self(self, i + 1, j, used + need);
      pool_used[t] -= need;
    }
  };
  rec(rec, i0, lo_init, used0);

  best.nodes_visited = nodes;
  best.elapsed_us = elapsed_us_since(start);
  return best;
}

constexpr std::uint32_t kNoNode = 0xffffffffu;

/// The pruned searcher's DP state: a partial tuple summarized by its
/// total fractional core usage, its adjusted energy, the arena node from
/// which the actual rung assignment can be reconstructed, and the slab
/// slot holding its per-pool usage.
struct PrunedState {
  long double used = 0.0L;
  long double cost = 0.0L;
  std::uint32_t node = kNoNode;
  std::uint32_t slot = 0;
};

/// Parent-pointer arena entry: one (rung chosen, predecessor) link.
struct PrunedNode {
  std::uint32_t parent = kNoNode;
  std::uint32_t rung = 0;
};

SearchResult pruned_core(const CCTable& cc, std::size_t total_cores,
                         const energy::PowerModel* model,
                         const std::vector<std::size_t>* prefix) {
  const auto start = Clock::now();
  SearchResult res;
  const CapacityView view(cc, total_cores, model);
  const std::size_t r = cc.rows();
  const std::size_t k = cc.cols();
  const std::size_t np = view.pools();
  // The scalar core budget and, below, the adjusted-cost bound, each
  // with its tie window folded in once: x87 long double arithmetic on an
  // infinite bound is slow enough to dominate the sweep.
  const long double room = view.limit + kEps;
  const long double inf = std::numeric_limits<long double>::infinity();

  // Per-pool usage of the DP states when there are several pools, np
  // entries per slot; slot 0 is the root (the prefix's usage) until the
  // sweep repacks it. With one pool a state's usage is its total.
  std::vector<long double> slab(np, 0.0L);
  std::size_t kp = 0;
  std::size_t j0 = 0;
  long double used0 = 0.0L;
  if (prefix != nullptr) {
    const auto pd = prefix_demand(cc, view, total_cores, *prefix);
    if (!pd) {
      res.elapsed_us = elapsed_us_since(start);
      return res;
    }
    kp = prefix->size();
    j0 = prefix->empty() ? 0 : prefix->back();
    used0 = pd->total;
    slab = pd->per_pool;
  }

  // The energy of a full tuple decomposes as
  //   E = Σ_t m_t·park_t + Σ_i d_i(a_i)·(p(a_i) - park_pool(a_i))
  // (pools within capacity), so the DP minimizes the per-class adjusted
  // cost d·(p - park); the constant Σ_t m_t·park_t drops out of every
  // comparison. The per-(class, rung) demand/cost tables are computed
  // once: cc.demand is not a plain lookup.
  std::vector<char> feas(k * r, 0);
  std::vector<double> dem(k * r, 0.0);
  std::vector<long double> cost(k * r, 0.0L);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < r; ++j) {
      if (!cc.rung_feasible(j, i)) continue;
      feas[i * r + j] = 1;
      dem[i * r + j] = cc.demand(j, i);
      cost[i * r + j] =
          static_cast<long double>(dem[i * r + j]) *
          (static_cast<long double>(view.p[j]) -
           static_cast<long double>(view.park[view.pool[j]]));
    }
  }
  const auto table_demand = [&](std::size_t j, std::size_t i) {
    return dem[i * r + j];
  };

  // Admissible suffix lower bounds. bestC/bestD relax the chain
  // constraint to "rung >= j" per class independently (the energy curve
  // d·(p - park) is evaluated rung by rung, so convexity is not even
  // needed — the pointwise minimum is exact for the relaxation); lbC/lbD
  // suffix-sum them so lb[i][j] bounds any completion of classes [i, k)
  // at rungs >= j from below. lbD bounds only the *total* demand, which
  // stays admissible under per-pool capacity.
  std::vector<long double> lbC((k + 1) * r, 0.0L);
  std::vector<long double> lbD((k + 1) * r, 0.0L);
  for (std::size_t i = k; i-- > kp;) {
    long double bc = inf;
    long double bd = inf;
    for (std::size_t j = r; j-- > 0;) {
      if (feas[i * r + j]) {
        bc = std::min(bc, cost[i * r + j]);
        bd = std::min(bd, static_cast<long double>(dem[i * r + j]));
      }
      lbC[i * r + j] = bc + lbC[(i + 1) * r + j];
      lbD[i * r + j] = bd + lbD[(i + 1) * r + j];
    }
  }
  const auto chain_cost = [&](const std::vector<std::size_t>& t) {
    long double c = 0.0L;
    for (std::size_t i = kp; i < k; ++i) c += cost[i * r + t[i]];
    return c;
  };

  // Incumbent: Algorithm 1's backtracking descent primes the bound. Its
  // solution is feasible, so the optimum's adjusted cost cannot exceed
  // the incumbent's; anything provably above it (outside the tie
  // window) is dead. Budgeted: adversarial tables make the descent
  // exponential; the DP is complete on its own, an aborted incumbent
  // only weakens the pruning.
  long double ub = inf;
  const auto seed = run_descent(cc, view, total_cores,
                                /*allow_backtrack=*/true, prefix,
                                kIncumbentNodeBudget);
  res.nodes_visited += seed.nodes_visited;
  res.aborted = seed.aborted;
  if (seed.found) ub = chain_cost(seed.tuple);

  std::vector<PrunedNode> arena;
  arena.reserve(1024);
  std::vector<std::size_t> scratch_a;
  std::vector<std::size_t> scratch_b;

  // Reconstruct the suffix rungs of a state into `out` (indices kp..k
  // of the eventual tuple, most recent class last). `depth` is how many
  // classes the chain covers.
  const auto reconstruct = [&](std::uint32_t node, std::size_t depth,
                               std::vector<std::size_t>& out) {
    out.assign(depth, 0);
    std::size_t at = depth;
    for (std::uint32_t n = node; n != kNoNode; n = arena[n].parent) {
      out[--at] = arena[n].rung;
    }
  };
  std::vector<std::size_t> a(k, 0);
  if (prefix != nullptr) std::copy(prefix->begin(), prefix->end(), a.begin());
  const auto full_tuple = [&](std::uint32_t node) {
    reconstruct(node, k - kp, scratch_a);
    std::copy(scratch_a.begin(), scratch_a.end(), a.begin() + kp);
    return a;
  };

  // A second upper bound, whose completions also re-enter the final
  // selection as found-ness witnesses. Without it, a table whose
  // incumbent descent aborted would run the sweep against ub = inf and
  // visit orders of magnitude more states.
  std::vector<std::vector<std::size_t>> witnesses;
  if (np == 1) {
    // One pool: a scalar two-chain beam over the same lattice — per last
    // rung only the minimum-demand and minimum-cost chains survive,
    // plain scalars with no frontier machinery, so the whole pass is
    // O(k·r) arithmetic. With one-dimensional capacity the min-demand
    // chain is an exact DP (the true minimum-demand chain is preserved —
    // the same argument that makes frontier thinning feasibility-safe),
    // so the pilot completes whenever the table is feasible, and its
    // completion cost is a valid — usually tight — upper bound that
    // collapses the sweep's frontiers to the near-optimal band.
    const PrunedState none{inf, inf, kNoNode, 0};
    std::vector<PrunedState> curU(r, none), curC(r, none);
    std::vector<PrunedState> nxtU(r, none), nxtC(r, none);
    curU[j0] = curC[j0] = PrunedState{used0, 0.0L, kNoNode, 0};
    for (std::size_t i = kp; i < k; ++i) {
      PrunedState accU = none;  // min used over chains ending at rungs <= j
      PrunedState accC = none;  // min cost over the same set
      for (std::size_t j = j0; j < r; ++j) {
        if (curU[j].used < accU.used) accU = curU[j];
        if (curC[j].used < accU.used) accU = curC[j];
        if (curC[j].cost < accC.cost) accC = curC[j];
        if (curU[j].cost < accC.cost) accC = curU[j];
        nxtU[j] = nxtC[j] = none;
        if (!feas[i * r + j]) continue;
        const long double dij = dem[i * r + j];
        const long double cij = cost[i * r + j];
        const long double lb_d = lbD[(i + 1) * r + j];
        for (auto [from, to] : {std::pair{&accU, &nxtU[j]},
                                std::pair{&accC, &nxtC[j]}}) {
          if (from->used < inf && from->used + dij + lb_d <= room) {
            const auto node = static_cast<std::uint32_t>(arena.size());
            arena.push_back(
                PrunedNode{from->node, static_cast<std::uint32_t>(j)});
            *to = PrunedState{from->used + dij, from->cost + cij, node, 0};
          }
        }
      }
      curU.swap(nxtU);
      curC.swap(nxtC);
    }
    for (std::size_t j = j0; j < r; ++j) {
      for (const auto* s : {&curU[j], &curC[j]}) {
        if (s->used < inf) {
          ub = std::min(ub, s->cost);
          witnesses.push_back(full_tuple(s->node));
        }
      }
    }
  } else if (seed.aborted) {
    // Several pools: the min-demand chain no longer proves per-pool
    // feasibility, so when the incumbent gave up, an unbudgeted greedy
    // descent (<= k·r selects, no backtracking) stands in.
    const auto greedy = run_descent(cc, view, total_cores,
                                    /*allow_backtrack=*/false, prefix);
    res.nodes_visited += greedy.nodes_visited;
    if (greedy.found) {
      ub = std::min(ub, chain_cost(greedy.tuple));
      witnesses.push_back(greedy.tuple);
    }
  }

  // True when the chain ending at `na` is lexicographically greater than
  // the one at `nb` (both cover `depth` classes). Only consulted on
  // exact (usage, cost) ties, where the documented tie-break wants the
  // slower prefix kept: equal prefixes share their completion set, so
  // the lex-greater prefix yields the lex-greater final tuple.
  const auto lex_greater = [&](std::uint32_t na, std::uint32_t nb,
                               std::size_t depth) {
    reconstruct(na, depth, scratch_a);
    reconstruct(nb, depth, scratch_b);
    return scratch_a > scratch_b;
  };

  // Fronts are Pareto sets over (cost, every pool's usage), kept sorted
  // by total usage ascending, then cost descending, exact key ties in
  // insertion order. A state no cheaper on every axis than an existing
  // one is dropped; on an exact all-axes tie the lex-greater chain
  // survives, matching the documented tie-break. Otherwise it enters in
  // key order and the states it dominates leave.
  const auto dominates = [&](const PrunedState& x, const PrunedState& y) {
    if (x.cost > y.cost) return false;
    for (std::size_t t = 0; t < np; ++t) {
      if (slab[x.slot * np + t] > slab[y.slot * np + t]) return false;
    }
    return true;
  };
  const auto pareto_insert = [&](std::vector<PrunedState>& front,
                                 const PrunedState& s, std::size_t depth) {
    if (np == 1) {
      // One pool: the usage is the total and cost strictly falls along
      // the front, so only s's neighbours by usage can dominate it or be
      // dominated by it.
      auto it = std::lower_bound(
          front.begin(), front.end(), s,
          [](const PrunedState& x, const PrunedState& y) {
            return x.used < y.used;
          });
      if (it != front.begin() && (it - 1)->cost <= s.cost) return;
      if (it != front.end() && it->used == s.used) {
        if (it->cost < s.cost) return;
        if (it->cost == s.cost) {
          if (lex_greater(s.node, it->node, depth)) it->node = s.node;
          return;
        }
        *it = s;
      } else {
        it = front.insert(it, s);
      }
      auto last = it + 1;
      while (last != front.end() && last->cost >= s.cost) ++last;
      front.erase(it + 1, last);
      return;
    }
    // Several pools: scan the whole front in one pass. A front holds no
    // dominated pair, so a state that is dominated dominates nothing and
    // the front is still intact when the scan returns early.
    std::size_t kept = 0;
    std::size_t at = front.size();
    for (std::size_t i = 0; i < front.size(); ++i) {
      PrunedState& e = front[i];
      if (dominates(e, s)) {
        if (e.cost == s.cost &&
            std::equal(slab.begin() + e.slot * np,
                       slab.begin() + (e.slot + 1) * np,
                       slab.begin() + s.slot * np) &&
            lex_greater(s.node, e.node, depth)) {
          e.node = s.node;
        }
        return;
      }
      if (dominates(s, e)) continue;
      if (at == front.size() &&
          (s.used < e.used || (s.used == e.used && s.cost > e.cost))) {
        at = kept;
      }
      if (kept != i) front[kept] = e;
      ++kept;
    }
    at = std::min(at, kept);
    front.resize(kept);
    front.insert(front.begin() + static_cast<std::ptrdiff_t>(at), s);
  };

  // Worst-case width guardrail: degenerate tables can make a frontier's
  // true Pareto front exponentially wide. Fronts past cap_w·2 are
  // thinned to an evenly-spaced cap_w-subset keeping both endpoints —
  // the min-cost end keeps the cheapest-energy candidate, and with one
  // pool the min-usage end keeps exact feasibility (with several, it is
  // the best single feasibility witness, not a proof). The optimal chain
  // between them can only be lost on tables far beyond the exhaustive
  // gate (the full-width cap cannot bind at r·k <= 25, whose fronts stay
  // tiny).
  constexpr std::size_t kFrontierCap = 64;
  const auto thin = [](std::vector<PrunedState>& front, std::size_t cap_w) {
    if (front.size() <= 2 * cap_w) return;
    // In place: slot t reads from an index >= t, so writing front-to-back
    // never clobbers an unread source.
    const std::size_t n = front.size();
    for (std::size_t t = 0; t < cap_w; ++t) {
      front[t] = front[t * (n - 1) / (cap_w - 1)];
    }
    front.resize(cap_w);
  };

  // Sweep width: full (never binds at r·k <= 25, where exhaustive
  // equality is the contract; past that, natural fronts stay narrow up
  // to a few hundred lattice cells) in the exactness regime, a narrow
  // beam at production scale where the contract is feasibility
  // exactness, determinism and never-worse-than-backtracking — there the
  // whole plan takes about 1.4 ms p50 and 2.1 ms p99 on a 4-vCPU host
  // (`python3 perfbench/run.py --workload plan_homog`), inside the
  // service planner's 5 ms epoch.
  const std::size_t cap_w = (r - j0) * (k - kp) <= 256 ? kFrontierCap : 6;
  const long double bound = ub + 2 * kEps;
  std::size_t nodes = res.nodes_visited;

  // One sweep over the lattice, pruning against the adjusted-cost upper
  // bound; cur ends as the final frontiers indexed by last rung (only
  // rungs >= j0 are reachable).
  std::vector<std::vector<PrunedState>> cur(r), nxt(r);
  cur[j0].push_back(PrunedState{used0, 0.0L, kNoNode, 0});
  std::vector<PrunedState> acc;
  std::vector<long double> packed;
  for (std::size_t i = kp; i < k; ++i) {
    acc.clear();
    const std::size_t depth = i + 1 - kp;
    for (std::size_t j = j0; j < r; ++j) {
      // All states ending at rungs <= j are extendable at rung j; once
      // extended they all end at j, so merging them into one running
      // Pareto accumulator is exact.
      for (const auto& s : cur[j]) pareto_insert(acc, s, depth - 1);
      thin(acc, cap_w);
      nxt[j].clear();
      if (!feas[i * r + j]) continue;
      const long double dij = dem[i * r + j];
      const long double cij = cost[i * r + j];
      const long double lb_d = lbD[(i + 1) * r + j];
      const long double lb_c = lbC[(i + 1) * r + j];
      const std::size_t tj = view.pool[j];
      for (const auto& s : acc) {
        ++nodes;
        const long double u = s.used + dij;
        if (u + lb_d > room) continue;  // cannot fit even optimistically
        const long double c = s.cost + cij;
        if (c + lb_c > bound) continue;  // outside the tie window
        std::uint32_t slot = 0;
        if (np > 1) {
          // Each pool has its own budget (with one pool, the total check
          // above is the pool's), and the child's usage row is its
          // parent's plus this class's demand.
          if (slab[s.slot * np + tj] + dij > view.cap[tj] + kEps) continue;
          slot = static_cast<std::uint32_t>(slab.size() / np);
          slab.resize(slab.size() + np);
          std::copy_n(slab.begin() + s.slot * np, np,
                      slab.begin() + slot * np);
          slab[slot * np + tj] += dij;
        }
        const auto node = static_cast<std::uint32_t>(arena.size());
        arena.push_back(PrunedNode{s.node, static_cast<std::uint32_t>(j)});
        pareto_insert(nxt[j], PrunedState{u, c, node, slot}, depth);
      }
      thin(nxt[j], cap_w);
    }
    cur.swap(nxt);
    if (np > 1) {
      // Only the states now in cur are live: repack their usage rows so
      // the slab holds one class's worth of states, not every extension.
      packed.clear();
      for (auto& front : cur) {
        for (auto& s : front) {
          packed.insert(packed.end(), slab.begin() + s.slot * np,
                        slab.begin() + (s.slot + 1) * np);
          s.slot = static_cast<std::uint32_t>(packed.size() / np - 1);
        }
      }
      slab.swap(packed);
    }
  }

  // Final selection: evaluate the surviving completions with the exact
  // energy estimator (over the precomputed demand table, bit-identical
  // to tuple_energy_estimate) and the exhaustive searcher's tie-break,
  // so the two searchers agree on the winner.
  double best_e = std::numeric_limits<double>::infinity();
  double best_used = std::numeric_limits<double>::infinity();
  const auto consider = [&](const std::vector<std::size_t>& t) {
    long double u = 0.0L;
    const double e = view.energy(t, table_demand, &u);
    const double used_d = static_cast<double>(u);
    bool better = e < best_e - kEps;
    if (!better && e <= best_e + kEps) {
      if (used_d < best_used - kEps) {
        better = true;
      } else if (used_d <= best_used + kEps) {
        better = res.found && t > res.tuple;
      }
    }
    if (better) {
      best_e = std::min(best_e, e);
      best_used = used_d;
      res.found = true;
      res.tuple = t;
      res.cores_used = static_cast<std::size_t>(std::ceil(used_d - kEps));
    }
  };
  // The incumbent competes directly, so the result is never worse than a
  // completed backtracking descent even if frontier thinning dropped the
  // optimal DP chain on an adversarial table. The witnesses compete too:
  // a tight bound plus narrow-beam thinning can starve the sweep on an
  // adversarial table, and a witness is exactly the feasible completion
  // that proves found-ness there.
  if (seed.found) consider(seed.tuple);
  for (const auto& t : witnesses) consider(t);
  for (std::size_t j = j0; j < r; ++j) {
    for (const auto& s : cur[j]) consider(full_tuple(s.node));
  }
  res.nodes_visited = nodes;
  res.elapsed_us = elapsed_us_since(start);
  return res;
}

}  // namespace

SearchResult search_exhaustive(const CCTable& cc, std::size_t total_cores,
                               const energy::PowerModel* model) {
  return exhaustive_core(cc, total_cores, model, nullptr);
}

SearchResult search_pruned(const CCTable& cc, std::size_t total_cores,
                           const energy::PowerModel* model) {
  return pruned_core(cc, total_cores, model, nullptr);
}

SearchResult search_suffix(const CCTable& cc, std::size_t total_cores,
                           SearchKind kind,
                           const std::vector<std::size_t>& prefix,
                           const energy::PowerModel* model) {
  switch (kind) {
    case SearchKind::kBacktracking:
      return run_descent(cc, total_cores, /*allow_backtrack=*/true, &prefix);
    case SearchKind::kExhaustive:
      return exhaustive_core(cc, total_cores, model, &prefix);
    case SearchKind::kGreedy:
      return run_descent(cc, total_cores, /*allow_backtrack=*/false, &prefix);
    case SearchKind::kPruned:
      return pruned_core(cc, total_cores, model, &prefix);
  }
  return {};
}

SearchResult search_ktuple(const CCTable& cc, std::size_t total_cores,
                           SearchKind kind, const energy::PowerModel* model) {
  switch (kind) {
    case SearchKind::kBacktracking:
      return search_backtracking(cc, total_cores);
    case SearchKind::kExhaustive:
      return search_exhaustive(cc, total_cores, model);
    case SearchKind::kGreedy:
      return search_greedy(cc, total_cores);
    case SearchKind::kPruned:
      return search_pruned(cc, total_cores, model);
  }
  return {};
}

}  // namespace eewa::core
