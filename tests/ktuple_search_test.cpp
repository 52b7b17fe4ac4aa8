// Tests for Algorithm 1 (backtracking k-tuple search) and its ablation
// variants: the paper's Fig. 3 worked example, the three constraints as
// properties over randomized tables, and the relationships between the
// greedy / backtracking / exhaustive searchers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/core_type.hpp"
#include "core/ktuple_search.hpp"
#include "testing/scenario.hpp"
#include "util/rng.hpp"

namespace eewa::core {
namespace {

CCTable fig3() {
  return CCTable::from_matrix(
      {{2, 3, 1, 1}, {4, 6, 2, 2}, {6, 9, 3, 3}, {8, 12, 4, 4}});
}

TEST(Backtracking, ReproducesFigure3Tuple) {
  const auto res = search_backtracking(fig3(), 16);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.tuple, (std::vector<std::size_t>{1, 1, 2, 2}));
  EXPECT_EQ(res.cores_used, 16u);
  // Per the paper, 10 cores end up at F1 and 6 at F2.
  EXPECT_EQ(fig3().ceil_at(1, 0) + fig3().ceil_at(1, 1), 10u);
  EXPECT_EQ(fig3().ceil_at(2, 2) + fig3().ceil_at(2, 3), 6u);
}

TEST(Backtracking, AllTopRowWhenCapacityTight) {
  // With exactly the F0 demand available, only the all-F0 tuple fits.
  const auto cc = fig3();
  const std::size_t top = cc.ceil_at(0, 0) + cc.ceil_at(0, 1) +
                          cc.ceil_at(0, 2) + cc.ceil_at(0, 3);
  const auto res = search_backtracking(cc, top);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.tuple, (std::vector<std::size_t>{0, 0, 0, 0}));
}

TEST(Backtracking, FailsWhenEvenTopRowExceedsCapacity) {
  const auto res = search_backtracking(fig3(), 6);  // top row needs 7
  EXPECT_FALSE(res.found);
  EXPECT_TRUE(res.tuple.empty());
}

TEST(Backtracking, PicksSlowestRowWithAbundantCores) {
  const auto res = search_backtracking(fig3(), 100);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.tuple, (std::vector<std::size_t>{3, 3, 3, 3}));
}

TEST(Backtracking, SingleClassSingleRung) {
  const auto cc = CCTable::from_matrix({{3.0}});
  const auto res = search_backtracking(cc, 4);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.tuple, (std::vector<std::size_t>{0}));
  EXPECT_EQ(res.cores_used, 3u);
}

TEST(Backtracking, ReportsSearchEffort) {
  const auto res = search_backtracking(fig3(), 16);
  EXPECT_GT(res.nodes_visited, 0u);
  EXPECT_GE(res.elapsed_us, 0.0);
}

TEST(Greedy, MatchesBacktrackingOnEasyInstances) {
  const auto g = search_greedy(fig3(), 100);
  const auto b = search_backtracking(fig3(), 100);
  ASSERT_TRUE(g.found);
  EXPECT_EQ(g.tuple, b.tuple);
}

TEST(Greedy, CanFailWhereBacktrackingSucceeds) {
  // Greedy descends to the deepest feasible rung for column 0, which
  // strands column 1; backtracking recovers.
  const auto cc = CCTable::from_matrix({{2, 2}, {3, 3}, {4, 9}});
  const auto g = search_greedy(cc, 8);
  const auto b = search_backtracking(cc, 8);
  EXPECT_FALSE(g.found);
  ASSERT_TRUE(b.found);
  EXPECT_TRUE(tuple_is_valid(cc, b.tuple, 8));
}

TEST(Exhaustive, FindsFeasibleOptimum) {
  const auto res = search_exhaustive(fig3(), 16);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(tuple_is_valid(fig3(), res.tuple, 16));
}

TEST(Exhaustive, EnergyNeverWorseThanBacktracking) {
  const auto cc = fig3();
  const auto b = search_backtracking(cc, 16);
  const auto e = search_exhaustive(cc, 16);
  ASSERT_TRUE(b.found);
  ASSERT_TRUE(e.found);
  EXPECT_LE(tuple_energy_estimate(cc, e.tuple, 16),
            tuple_energy_estimate(cc, b.tuple, 16) + 1e-9);
}

// ------------------------------------------------- proxy power model --

TEST(ProxyPower, ScansPastZeroColumns) {
  // Column 0 carries no work at any rung; the F0/F1 ratio must come from
  // column 1 (slowdown 4), not from a rank-based fallback.
  const auto cc = CCTable::from_matrix({{0, 1}, {0, 4}});
  EXPECT_NEAR(proxy_rung_power(cc, 0), 1.0, 1e-12);
  EXPECT_NEAR(proxy_rung_power(cc, 1), 1.0 / 64.0, 1e-12);
}

TEST(ProxyPower, UsesLeastMemoryBoundColumnUnderMemoryAwareAlphas) {
  // With per-class alphas, CC[1][i]/CC[0][i] = α_i + (1-α_i)·F0/F1. The
  // memory-bound class (α=0.5) shows 1.5 while the CPU-bound one shows
  // the true slowdown 2.0; the proxy must take the largest ratio.
  std::vector<ClassProfile> cls{{0, "mem", 1, 1.0, 1.0, 0.5},
                                {1, "cpu", 1, 0.5, 0.5, 0.0}};
  const auto cc = CCTable::build(cls, dvfs::FrequencyLadder({2.0, 1.0}),
                                 100.0, /*memory_aware=*/true);
  EXPECT_NEAR(cc.at(1, 0) / cc.at(0, 0), 1.5, 1e-12);
  EXPECT_NEAR(cc.at(1, 1) / cc.at(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(proxy_rung_power(cc, 1), 0.125, 1e-12);
}

TEST(ProxyPower, RankFallbackWhenNoColumnIsUsable) {
  const auto cc = CCTable::from_matrix({{0.0}, {0.0}, {0.0}});
  EXPECT_NEAR(proxy_rung_power(cc, 1), 1.0 / 8.0, 1e-12);
  EXPECT_NEAR(proxy_rung_power(cc, 2), 1.0 / 27.0, 1e-12);
}

TEST(TupleEnergy, LeftoverCoresBilledAtIdlePowerUnderModel) {
  // 4 demanded cores at F0; the other 4 park at the slowest rung and
  // must be billed the model's idle power there, exactly as
  // EnergyAccount will bill them, not its active power.
  const energy::PowerModel model(dvfs::FrequencyLadder({2.0, 1.0}),
                                 {1.2, 1.0}, /*dyn_coeff_w=*/1.0,
                                 /*core_static_w=*/0.5, /*floor_w=*/0.0);
  const auto cc = CCTable::from_matrix({{2, 2}, {4, 4}});
  const std::vector<std::size_t> tuple{0, 0};
  const double expect = 4.0 * model.core_power_w(0, /*active=*/true) +
                        4.0 * model.core_power_w(1, /*active=*/false);
  EXPECT_NEAR(tuple_energy_estimate(cc, tuple, 8, &model), expect, 1e-12);
  EXPECT_LT(tuple_energy_estimate(cc, tuple, 8, &model),
            4.0 * model.core_power_w(0, true) +
                4.0 * model.core_power_w(1, true));
}

TEST(Exhaustive, DeterministicTieBreakPrefersSlowerTuple) {
  // Every nondecreasing tuple of this table has identical demand and
  // identical proxy energy; the tie-break must pick the lexicographically
  // greater (slower) tuple so repeated runs agree.
  const auto cc = CCTable::from_matrix({{1, 1}, {1, 1}});
  const auto res = search_exhaustive(cc, 2);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.tuple, (std::vector<std::size_t>{1, 1}));
  EXPECT_EQ(res.cores_used, 2u);
}

TEST(TupleIsValid, ChecksAllThreeConstraints) {
  const auto cc = fig3();
  EXPECT_TRUE(tuple_is_valid(cc, {1, 1, 2, 2}, 16));
  EXPECT_FALSE(tuple_is_valid(cc, {2, 1, 2, 2}, 16));   // decreasing
  EXPECT_FALSE(tuple_is_valid(cc, {3, 3, 3, 3}, 16));   // over capacity
  EXPECT_FALSE(tuple_is_valid(cc, {1, 1, 2}, 16));      // wrong arity
  EXPECT_FALSE(tuple_is_valid(cc, {1, 1, 2, 9}, 16));   // rung range
}

TEST(SearchKtuple, DispatchesOnKind) {
  const auto cc = fig3();
  EXPECT_EQ(search_ktuple(cc, 16, SearchKind::kBacktracking).tuple,
            search_backtracking(cc, 16).tuple);
  EXPECT_EQ(search_ktuple(cc, 16, SearchKind::kGreedy).found,
            search_greedy(cc, 16).found);
  EXPECT_EQ(search_ktuple(cc, 16, SearchKind::kExhaustive).found,
            search_exhaustive(cc, 16).found);
  EXPECT_EQ(search_ktuple(cc, 16, SearchKind::kPruned).found,
            search_pruned(cc, 16).found);
}

// --------------------------------------------------- pruned/DP search --

TEST(Pruned, MatchesExhaustiveOnFigure3) {
  const auto cc = fig3();
  for (const std::size_t m : {7u, 10u, 16u, 100u}) {
    const auto pr = search_pruned(cc, m);
    const auto ex = search_exhaustive(cc, m);
    ASSERT_EQ(pr.found, ex.found) << "m=" << m;
    if (pr.found) {
      EXPECT_NEAR(tuple_energy_estimate(cc, pr.tuple, m),
                  tuple_energy_estimate(cc, ex.tuple, m), 1e-9)
          << "m=" << m;
    }
  }
}

TEST(Pruned, FeasibilityMatchesBacktrackingWhenInfeasible) {
  EXPECT_FALSE(search_pruned(fig3(), 6).found);  // top row needs 7
  EXPECT_TRUE(search_pruned(fig3(), 7).found);
}

// Property sweep over the fuzz harness's own table family: every small
// random table (r·k <= 24, the exhaustive gate) must give identical
// pruned and exhaustive energy, and a pruned tuple must never be one
// backtracking's complete search would reject as infeasible.
TEST(Pruned, EnergyEqualsExhaustiveOnSmallFuzzTables) {
  std::size_t covered = 0;
  for (std::uint64_t seed = 1; covered < 200; ++seed) {
    const auto spec = testing::TableSpec::random(seed);
    const auto cc = spec.build();
    if (cc.rows() * cc.cols() > 24) continue;
    ++covered;
    const auto pr = search_pruned(cc, spec.cores);
    const auto ex = search_exhaustive(cc, spec.cores);
    ASSERT_EQ(pr.found, ex.found) << "seed=" << seed;
    if (!pr.found) continue;
    EXPECT_TRUE(tuple_is_valid(cc, pr.tuple, spec.cores))
        << "seed=" << seed;
    const double e_pr = tuple_energy_estimate(cc, pr.tuple, spec.cores);
    const double e_ex = tuple_energy_estimate(cc, ex.tuple, spec.cores);
    EXPECT_NEAR(e_pr, e_ex, 1e-9 + 1e-9 * std::abs(e_ex))
        << "seed=" << seed;
  }
}

TEST(Pruned, NeverReturnsTupleBacktrackingWouldReject) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto spec = testing::TableSpec::random(seed);
    const auto cc = spec.build();
    const auto pr = search_pruned(cc, spec.cores);
    const auto bt = search_backtracking(cc, spec.cores);
    // Backtracking is a complete feasibility search: if it proves the
    // lattice empty, pruned must not claim a tuple (and vice versa).
    ASSERT_EQ(pr.found, bt.found) << "seed=" << seed;
    if (pr.found) {
      EXPECT_TRUE(tuple_is_valid(cc, pr.tuple, spec.cores))
          << "seed=" << seed;
    }
  }
}

TEST(Pruned, DocumentedTieBreakAtProductionWidth) {
  // k=256 columns of identical demand at both rungs: every nondecreasing
  // tuple has the same demand and proxy energy, so the documented
  // tie-break (fewest cores, then the lexicographically greater tuple)
  // must select the all-slowest tuple — deterministically, at full
  // production width.
  const std::size_t k = 256;
  std::vector<std::vector<double>> rows(2, std::vector<double>(k, 1.0));
  const auto cc = CCTable::from_matrix(rows);
  const auto pr = search_pruned(cc, k);
  ASSERT_TRUE(pr.found);
  EXPECT_EQ(pr.tuple, std::vector<std::size_t>(k, 1));
  EXPECT_EQ(pr.cores_used, k);
}

TEST(Pruned, WidenedAccumulatorSurvivesExtremeMagnitudeSpread) {
  // One enormous column followed by 255 tiny ones: a plain double
  // running sum of demands loses the tiny contributions entirely
  // (1e12 + 1e-4 == 1e12 in double), which would let the searcher claim
  // ~0.026 cores of demand never happened and admit an over-capacity
  // tuple. The long double accumulator keeps them.
  const std::size_t k = 256;
  std::vector<std::vector<double>> rows(1, std::vector<double>(k, 1e-4));
  rows[0][0] = 1e12;
  const auto cc = CCTable::from_matrix(rows);
  // Capacity exactly the true demand, rounded up: feasible.
  const double true_demand = 1e12 + 255.0 * 1e-4;
  const auto ok = search_pruned(cc, static_cast<std::size_t>(
                                        std::ceil(true_demand)));
  EXPECT_TRUE(ok.found);
  // Capacity 1e12 exactly: the 255 tiny columns overflow it. A naive
  // double accumulator absorbs them and wrongly reports feasible.
  const auto over = search_pruned(
      cc, static_cast<std::size_t>(1e12));
  EXPECT_FALSE(over.found);
  EXPECT_FALSE(
      search_backtracking(cc, static_cast<std::size_t>(1e12)).found);
  EXPECT_FALSE(tuple_is_valid(cc, std::vector<std::size_t>(k, 0),
                              static_cast<std::size_t>(1e12)));
}

TEST(Backtracking, NodeBudgetAbortsAndReportsIt) {
  // A 1-node budget cannot even place the first class.
  const auto res = search_backtracking(fig3(), 16, 1);
  EXPECT_FALSE(res.found);
  EXPECT_TRUE(res.aborted);
  // An ample budget completes and is not marked aborted.
  const auto full = search_backtracking(fig3(), 16, 1'000'000);
  EXPECT_TRUE(full.found);
  EXPECT_FALSE(full.aborted);
  EXPECT_EQ(full.tuple, search_backtracking(fig3(), 16).tuple);
}

// ------------------------------------------------------ suffix search --

TEST(SuffixSearch, KeepsPrefixVerbatimAndSplicesOptimalSuffix) {
  const auto cc = fig3();
  // Pin class 0 at rung 1 (its full-search choice) — the suffix search
  // must reproduce the full pruned result.
  const auto full = search_pruned(cc, 16);
  ASSERT_TRUE(full.found);
  const std::vector<std::size_t> prefix{full.tuple[0], full.tuple[1]};
  const auto sfx = search_suffix(cc, 16, SearchKind::kPruned, prefix);
  ASSERT_TRUE(sfx.found);
  EXPECT_EQ(sfx.tuple[0], prefix[0]);
  EXPECT_EQ(sfx.tuple[1], prefix[1]);
  EXPECT_NEAR(tuple_energy_estimate(cc, sfx.tuple, 16),
              tuple_energy_estimate(cc, full.tuple, 16), 1e-9);
}

TEST(SuffixSearch, RespectsNondecreasingConstraintFromPrefix) {
  const auto cc = fig3();
  // Pin class 0 at the slowest rung: every suffix class must sit at
  // rung >= 3 or the search must fail — it cannot dip below the prefix.
  const std::vector<std::size_t> prefix{3};
  const auto sfx = search_suffix(cc, 100, SearchKind::kPruned, prefix);
  ASSERT_TRUE(sfx.found);
  for (const std::size_t rung : sfx.tuple) EXPECT_GE(rung, 3u);
}

TEST(SuffixSearch, RejectsInvalidPrefix) {
  const auto cc = fig3();
  // Over capacity: rung 3 for class 1 needs 12 of 6 cores.
  EXPECT_FALSE(
      search_suffix(cc, 6, SearchKind::kPruned, {0, 3}).found);
  // Out of rung range.
  EXPECT_FALSE(
      search_suffix(cc, 16, SearchKind::kPruned, {9}).found);
  // All four kinds agree on rejection.
  for (const auto kind :
       {SearchKind::kBacktracking, SearchKind::kGreedy,
        SearchKind::kExhaustive, SearchKind::kPruned}) {
    EXPECT_FALSE(search_suffix(cc, 6, kind, {0, 3}).found);
  }
}

TEST(SuffixSearch, FullLengthPrefixEvaluatesAsIs) {
  const auto cc = fig3();
  const std::vector<std::size_t> prefix{1, 1, 2, 2};
  const auto sfx = search_suffix(cc, 16, SearchKind::kPruned, prefix);
  ASSERT_TRUE(sfx.found);
  EXPECT_EQ(sfx.tuple, prefix);
  EXPECT_EQ(sfx.cores_used, 16u);
}

// ------------------------------------------------ pinned planner digest --

/// FNV-1a over what the pruned searcher keeps bitwise stable across
/// refactors: found, the tuple, nodes_visited and aborted.
struct SearchDigest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const SearchResult& r) {
    add(r.found ? 1 : 0);
    add(r.tuple.size());
    for (const std::size_t j : r.tuple) add(j);
    add(r.nodes_visited);
    add(r.aborted ? 1 : 0);
  }
  /// search_pruned, then search_suffix with the winner's first half
  /// pinned as the prefix.
  void add_searches(const CCTable& cc, std::size_t m,
                    const energy::PowerModel* model) {
    const auto full = search_pruned(cc, m, model);
    add(full);
    if (!full.found) return;
    const auto half = static_cast<std::ptrdiff_t>(full.tuple.size() / 2);
    const std::vector<std::size_t> prefix(full.tuple.begin(),
                                          full.tuple.begin() + half);
    add(search_suffix(cc, m, SearchKind::kPruned, prefix, model));
  }
};

/// A search-large spec's classes on a two-type machine: its ladder and
/// power model for both types, half the cores slowed to 0.55x MIPS.
CCTable two_type_table(const testing::TableSpec& spec) {
  const dvfs::FrequencyLadder ladder(spec.ladder_ghz);
  std::shared_ptr<const energy::PowerModel> model;
  if (spec.use_model) {
    model = std::make_shared<const energy::PowerModel>(spec.build_model());
  }
  CoreType big;
  big.name = "big";
  big.ladder = ladder;
  big.mips_scale.assign(ladder.size(), 1.0);
  big.model = model;
  big.count = spec.cores / 2;
  CoreType little = big;
  little.name = "LITTLE";
  little.mips_scale.assign(ladder.size(), 0.55);
  little.count = spec.cores - big.count;
  return CCTable::build_typed(spec.classes, MachineTopology({big, little}),
                              spec.ideal_time_s, spec.memory_aware);
}

// The pruned searcher's exact output on a fixed input set, recorded
// when homogeneous and typed tables still had separate DPs: production
// homogeneous tables (search-large seeds, with and without a power
// model), production two-type tables, and multi-type HeteroSpec tables
// past the r·k <= 25 exhaustive gate. A change to the DP that moves any
// tuple, node count or abort flag changes the digest.
TEST(Pruned, PinnedPlannerDigest) {
  SearchDigest d;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const auto spec = testing::TableSpec::random_large(seed);
    const auto model = spec.build_model();
    d.add_searches(spec.build(), spec.cores,
                   spec.use_model ? &model : nullptr);
  }
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto spec = testing::TableSpec::random_large(seed);
    d.add_searches(two_type_table(spec), spec.cores, nullptr);
  }
  std::size_t hetero = 0;
  for (std::uint64_t seed = 1; hetero < 40; ++seed) {
    const auto spec = testing::HeteroSpec::random(seed);
    if (spec.types.size() < 2) continue;
    const auto cc = spec.build();
    if (cc.rows() * cc.cols() <= 25) continue;
    ++hetero;
    d.add_searches(cc, spec.total_cores(), nullptr);
  }
  EXPECT_EQ(d.h, 0xa9ae1dd83acfbb92ULL) << std::hex << d.h;
}

// ------------------------------------------------ randomized properties --

struct RandomCase {
  std::size_t r, k, cores;
  std::uint64_t seed;
};

class RandomizedSearch : public ::testing::TestWithParam<RandomCase> {};

CCTable random_table(const RandomCase& rc) {
  util::Xoshiro256 rng(rc.seed);
  // Build descending frequencies, then the exact CC scaling structure.
  std::vector<double> slowdown(rc.r, 1.0);
  for (std::size_t j = 1; j < rc.r; ++j) {
    slowdown[j] = slowdown[j - 1] * rng.uniform(1.1, 1.8);
  }
  std::vector<std::vector<double>> rows(rc.r, std::vector<double>(rc.k));
  for (std::size_t i = 0; i < rc.k; ++i) {
    const double base = rng.uniform(0.2, 4.0);
    for (std::size_t j = 0; j < rc.r; ++j) {
      rows[j][i] = base * slowdown[j];
    }
  }
  return CCTable::from_matrix(rows);
}

TEST_P(RandomizedSearch, FoundTuplesSatisfyAllConstraints) {
  const auto rc = GetParam();
  const auto cc = random_table(rc);
  const auto res = search_backtracking(cc, rc.cores);
  if (res.found) {
    EXPECT_TRUE(tuple_is_valid(cc, res.tuple, rc.cores));
    EXPECT_LE(res.cores_used, rc.cores);
  }
}

TEST_P(RandomizedSearch, BacktrackingFindsWheneverExhaustiveDoes) {
  const auto rc = GetParam();
  const auto cc = random_table(rc);
  const auto e = search_exhaustive(cc, rc.cores);
  const auto b = search_backtracking(cc, rc.cores);
  EXPECT_EQ(b.found, e.found);
}

TEST_P(RandomizedSearch, ExhaustiveEnergyIsMinimal) {
  const auto rc = GetParam();
  const auto cc = random_table(rc);
  const auto e = search_exhaustive(cc, rc.cores);
  const auto b = search_backtracking(cc, rc.cores);
  if (e.found && b.found) {
    EXPECT_LE(tuple_energy_estimate(cc, e.tuple, rc.cores),
              tuple_energy_estimate(cc, b.tuple, rc.cores) + 1e-9);
  }
}

TEST_P(RandomizedSearch, GreedySuccessImpliesBacktrackingSuccess) {
  const auto rc = GetParam();
  const auto cc = random_table(rc);
  const auto g = search_greedy(cc, rc.cores);
  if (g.found) {
    EXPECT_TRUE(search_backtracking(cc, rc.cores).found);
    EXPECT_TRUE(tuple_is_valid(cc, g.tuple, rc.cores));
  }
}

std::vector<RandomCase> random_cases() {
  std::vector<RandomCase> cases;
  std::uint64_t seed = 1;
  for (std::size_t r : {2u, 3u, 4u, 6u}) {
    for (std::size_t k : {1u, 2u, 3u, 5u}) {
      for (std::size_t cores : {4u, 16u, 64u}) {
        cases.push_back(RandomCase{r, k, cores, seed++});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomizedSearch,
                         ::testing::ValuesIn(random_cases()),
                         [](const auto& info) {
                           const auto& p = info.param;
                           return "r" + std::to_string(p.r) + "k" +
                                  std::to_string(p.k) + "m" +
                                  std::to_string(p.cores);
                         });

}  // namespace
}  // namespace eewa::core
