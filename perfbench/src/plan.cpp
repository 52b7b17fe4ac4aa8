// plan_homog / plan_typed: the planner alone, as the service planner
// thread runs it. Seeded heavy-tailed k = 256 class profiles are planned
// one at a time with core::Adjuster::adjust (SearchKind::kPruned):
//
//   plan_homog: a 16-rung ladder over 256 identical cores;
//   plan_typed: a 2-type x 8-rung big.LITTLE topology of 128 cores.
//
// They are two workloads, not one, so a change that speeds one planner
// path and slows the other cannot hide behind an average. The ideal time
// T comes from each machine's effective capacity, so every profile has a
// feasible plan. Traced rounds call the pipeline's stages one by one
// (CC build, search_pruned, make_frequency_plan) and time each.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "core/adjuster.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace eewa;

constexpr std::size_t kClasses = 256;
/// Distinct profiles per run; a timed round plans each once. The typed
/// planner is ~17x slower per plan, so it gets fewer profiles per round:
/// both rounds then take under a second and a run holds 20 or more.
constexpr std::size_t kProfilesHomog = 64;
constexpr std::size_t kProfilesTyped = 32;

struct Machine {
  std::size_t cores = 0;
  dvfs::FrequencyLadder ladder = dvfs::FrequencyLadder({1.0});
  std::shared_ptr<const core::MachineTopology> topo;  ///< typed only
  double capacity = 0.0;  ///< cores-equivalent at the fastest row
};

Machine make_machine(bool typed) {
  Machine m;
  if (!typed) {
    m.cores = 256;
    m.ladder = dvfs::FrequencyLadder::linear(0.8, 3.2, 16);
    m.capacity = 256.0;
    return m;
  }
  core::CoreType big;
  big.name = "big";
  big.ladder = dvfs::FrequencyLadder::linear(0.8, 3.2, 8);
  big.mips_scale.assign(8, 1.0);
  big.count = 64;
  core::CoreType little;
  little.name = "LITTLE";
  little.ladder = dvfs::FrequencyLadder::linear(0.5, 2.0, 8);
  little.mips_scale.assign(8, 0.6);
  little.count = 64;
  m.topo = std::make_shared<core::MachineTopology>(
      std::vector<core::CoreType>{big, little});
  m.cores = m.topo->total_cores();
  m.ladder = big.ladder;
  for (std::size_t t = 0; t < m.topo->type_count(); ++t) {
    m.capacity += static_cast<double>(m.topo->type(t).count) /
                  m.topo->row_slowdown(m.topo->row_of(t, 0));
  }
  return m;
}

struct Profile {
  std::vector<core::ClassProfile> classes;  ///< descending mean workload
  double ideal_s = 0.0;
};

/// A few dominant classes and a long light tail over ~3 decades (the
/// shape SlidingProfile hands the service planner), at a seeded 45-70%
/// utilisation of the machine's effective capacity.
Profile make_profile(util::Xoshiro256& rng, double capacity) {
  Profile p;
  p.classes.resize(kClasses);
  double total_work = 0.0;
  for (std::size_t i = 0; i < kClasses; ++i) {
    auto& c = p.classes[i];
    c.class_id = i;
    c.name = std::string("c").append(std::to_string(i));
    c.count = 1 + static_cast<std::size_t>(rng.bounded(64));
    c.mean_workload = 0.001 * std::exp(rng.uniform(0.0, 6.0));
    c.max_workload = c.mean_workload * (1.0 + rng.uniform());
    total_work += c.total_workload();
  }
  std::sort(p.classes.begin(), p.classes.end(),
            [](const auto& a, const auto& b) {
              return a.mean_workload > b.mean_workload;
            });
  p.ideal_s = total_work / (capacity * rng.uniform(0.45, 0.70));
  return p;
}

/// Independent re-check of a plan's tuple: nondecreasing rungs, and the
/// fractional core demand fits the machine and every core type.
bool tuple_fits(const core::CCTable& cc, const std::vector<std::size_t>& a,
                std::size_t cores) {
  if (a.size() != cc.cols()) return false;
  const core::MachineTopology* topo = cc.topology();
  std::vector<double> per_type(topo ? topo->type_count() : 1, 0.0);
  double used = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] >= cc.rows() || (i > 0 && a[i] < a[i - 1])) return false;
    const double d = cc.demand(a[i], i);
    used += d;
    per_type[topo ? topo->row_type(a[i]) : 0] += d;
  }
  constexpr double kEps = 1e-9;
  for (std::size_t t = 0; topo && t < per_type.size(); ++t) {
    if (per_type[t] > static_cast<double>(topo->type(t).count) + kEps) {
      return false;
    }
  }
  return used <= static_cast<double>(cores) + kEps;
}

}  // namespace

void run_plan(const Config& cfg, Result& out) {
  const bool typed = cfg.workload == "plan_typed";
  const std::string tag = typed ? ".typed" : ".homog";

  Machine m;
  std::vector<Profile> profiles;
  std::unique_ptr<core::Adjuster> adj;
  const double setup_s = timed_setup(30, [&] {
    m = make_machine(typed);
    util::Xoshiro256 rng(cfg.seed * 0x9e3779b97f4a7c15ULL + (typed ? 2 : 1));
    profiles.clear();
    for (std::size_t i = 0; i < (typed ? kProfilesTyped : kProfilesHomog); ++i) {
      profiles.push_back(make_profile(rng, m.capacity));
    }
    core::AdjusterOptions ao;
    ao.search = core::SearchKind::kPruned;
    ao.topology = m.topo;
    adj = std::make_unique<core::Adjuster>(m.ladder, m.cores, ao);
  });
  out.e2e("setup_s", setup_s);

  // Checked pass (also the warm-up): every profile must plan, and every
  // plan must fit.
  std::vector<double> energy_rel;
  for (const auto& p : profiles) {
    out.attempt(1);
    const auto a = adj->adjust(p.classes, kClasses, p.ideal_s);
    if (!a.search.found) {
      out.fail(1, cfg.workload + ": no plan found for a profile");
      continue;
    }
    if (!tuple_fits(a.cc, a.search.tuple, m.cores)) {
      out.fail(1, cfg.workload + ": plan tuple breaks order or capacity");
      continue;
    }
    const std::vector<std::size_t> all_f0(kClasses, 0);
    energy_rel.push_back(
        core::tuple_energy_estimate(a.cc, a.search.tuple, m.cores) /
        core::tuple_energy_estimate(a.cc, all_f0, m.cores));
  }
  out.layer("plan_energy_rel", geomean(energy_rel));

  const double margin = std::clamp(adj->options().time_margin, 0.0, 0.9);
  std::vector<double> plan_us, bare_wall, traced_wall, round_ops;
  std::vector<double> build_us, search_us, carve_us;
  double nodes = 0.0, aborted = 0.0, searches = 0.0;
  bool traced_next = false;
  const auto start = Clock::now();
  while (bare_wall.empty() || (cfg.trace && traced_wall.empty()) ||
         seconds_since(start) < cfg.seconds) {
    double round_s = 0.0;
    for (const auto& p : profiles) {
      auto classes = p.classes;  // the planner consumes its profile
      if (!traced_next) {
        const auto t0 = Clock::now();
        const auto a = adj->adjust(std::move(classes), kClasses, p.ideal_s);
        const double s = seconds_since(t0);
        round_s += s;
        plan_us.push_back(s * 1e6);
        out.attempt(1);
        if (!a.search.found) out.fail(1, cfg.workload + ": plan lost");
        continue;
      }
      const double t_plan = p.ideal_s * (1.0 - margin);
      const auto t0 = Clock::now();
      const auto cc =
          typed ? core::CCTable::build_typed(std::move(classes), *m.topo, t_plan)
                : core::CCTable::build(std::move(classes), m.ladder, t_plan);
      const auto t1 = Clock::now();
      const auto sr = core::search_pruned(cc, m.cores);
      const auto t2 = Clock::now();
      const auto plan = core::make_frequency_plan(cc, sr, m.cores, m.ladder,
                                                  kClasses);
      const auto t3 = Clock::now();
      round_s += std::chrono::duration<double>(t3 - t0).count();
      build_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      search_us.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
      carve_us.push_back(std::chrono::duration<double, std::micro>(t3 - t2).count());
      nodes += static_cast<double>(sr.nodes_visited);
      aborted += sr.aborted ? 1.0 : 0.0;
      searches += 1.0;
      out.attempt(1);
      if (!sr.found || !plan.planned) out.fail(1, cfg.workload + ": plan lost");
    }
    if (traced_next) {
      traced_wall.push_back(round_s);
    } else {
      bare_wall.push_back(round_s);
      round_ops.push_back(static_cast<double>(profiles.size()) / round_s);
    }
    traced_next = cfg.trace && !traced_next;
  }

  out.e2e("ops_per_s", sustained(round_ops));
  const std::string p = typed ? "typed_plan_" : "plan_";
  out.layer(p + "p50_us", percentile(plan_us, 50.0));
  out.layer(p + "p99_us", percentile(plan_us, 99.0));
  std::printf("%s: %zu timed plans, %zu profiles of k=%zu on %zu cores\n",
              cfg.workload.c_str(), plan_us.size(), profiles.size(), kClasses,
              m.cores);
  if (!cfg.trace) return;
  out.layer("bench.trace_overhead", median(traced_wall) / median(bare_wall));
  out.layer("core.cc_build_us" + tag, median(build_us));
  out.layer("core.search_us" + tag, median(search_us));
  out.layer("core.plan_carve_us" + tag, median(carve_us));
  out.layer("core.search.nodes" + tag, nodes / searches);
  out.layer("core.search.aborted_frac" + tag, aborted / searches);
}

}  // namespace perfbench
