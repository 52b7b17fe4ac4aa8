// paper_suite: the paper's own experiment (Fig. 6 / Table III). The seven
// Table-II traces run under Cilk, Cilk-D and EEWA on the simulated
// 16-core Opteron, closed batches back to back. One round simulates all
// 21 (trace, policy) pairs; rounds repeat until the time is up.
//
// Round 0 runs every policy behind a counting wrapper and checks that
// every trace task completed; it also fixes the paper ratios. Timed
// rounds call simulate() on the bare policies. Traced runs interleave
// rounds whose wrapper also times the five Policy callbacks, so the
// simulator's own time is simulate() wall minus callback time.
#include <array>
#include <cstdio>
#include <memory>
#include <optional>

#include "common.hpp"
#include "sim/simulate.hpp"
#include "workloads/suite.hpp"

namespace perfbench {
namespace {

using namespace eewa;

/// Batches per Table-II trace: one round (21 simulations, ~950k tasks)
/// takes about 0.2 s on a 4-vCPU host, so a 10 s run holds ~50 rounds.
constexpr std::size_t kBatches = 1000;
/// The paper's own limits, checked on every run: EEWA/Cilk time (Fig. 6)
/// and the adjuster's share of EEWA's run time (Table III).
constexpr double kPaperTimeLimit = 1.037;
constexpr double kPaperOverheadPct = 2.0;

enum class RoundKind { kChecked, kBare, kTraced };

/// Delegates every callback to `inner`; counts completed tasks and
/// acquire outcomes, and with `timed` also accumulates the wall time
/// spent inside each callback.
class ProbePolicy : public sim::Policy {
 public:
  ProbePolicy(sim::Policy& inner, bool timed) : inner_(inner), timed_(timed) {}

  std::string name() const override { return inner_.name(); }
  void batch_start(sim::Machine& m, const trace::Batch& batch,
                   std::size_t batch_index) override {
    const auto t0 = now();
    inner_.batch_start(m, batch, batch_index);
    batch_start_s += since(t0);
  }
  void place_task(sim::Machine& m, sim::TaskId id) override {
    const auto t0 = now();
    inner_.place_task(m, id);
    place_task_s += since(t0);
  }
  std::optional<sim::TaskId> acquire(sim::Machine& m,
                                     std::size_t core) override {
    const auto t0 = now();
    const auto got = inner_.acquire(m, core);
    acquire_s += since(t0);
    ++acquire_calls;
    if (got) ++acquire_hits;
    return got;
  }
  void task_done(sim::Machine& m, std::size_t core,
                 const trace::TraceTask& task, double exec_s) override {
    const auto t0 = now();
    inner_.task_done(m, core, task, exec_s);
    task_done_s += since(t0);
    ++completed;
  }
  double batch_end(sim::Machine& m, double makespan_s) override {
    const auto t0 = now();
    const double overhead = inner_.batch_end(m, makespan_s);
    const double s = since(t0);
    batch_end_s += s;
    if (timed_) batch_end_us.push_back(s * 1e6);
    return overhead;
  }

  double callbacks_s() const {
    return batch_start_s + place_task_s + acquire_s + task_done_s +
           batch_end_s;
  }

  std::size_t completed = 0;
  std::size_t acquire_calls = 0;
  std::size_t acquire_hits = 0;
  double batch_start_s = 0.0;
  double place_task_s = 0.0;
  double acquire_s = 0.0;
  double task_done_s = 0.0;
  double batch_end_s = 0.0;
  std::vector<double> batch_end_us;

 private:
  Clock::time_point now() const {
    return timed_ ? Clock::now() : Clock::time_point{};
  }
  double since(Clock::time_point t0) const {
    return timed_ ? seconds_since(t0) : 0.0;
  }

  sim::Policy& inner_;
  bool timed_;
};

struct Round {
  double wall_s = 0.0;
  double sim_wall_s = 0.0;  ///< Σ simulate() wall
  std::size_t tasks = 0;
  // Per trace: cilk, cilk-d, eewa results.
  std::vector<std::array<sim::SimResult, 3>> results;
  double eewa_time_s = 0.0;
  double adjust_us = 0.0;
  std::size_t completed = 0;
  std::size_t eewa_batches = 0;
  std::size_t plans_reused = 0;
  std::size_t plans_incremental = 0;
  // Wrapped rounds only.
  double callbacks_s = 0.0, batch_start_s = 0.0, place_task_s = 0.0,
         acquire_s = 0.0, task_done_s = 0.0, batch_end_s = 0.0;
  std::size_t acquire_calls = 0, acquire_hits = 0;
  std::vector<double> batch_end_us;
};

std::size_t tasks_of(const trace::TaskTrace& tr) {
  std::size_t n = 0;
  for (const auto& b : tr.batches) n += b.tasks.size();
  return n;
}

Round run_round(const std::vector<trace::TaskTrace>& traces,
                const sim::SimOptions& opt, RoundKind kind) {
  Round r;
  const auto t0 = Clock::now();
  for (const auto& tr : traces) {
    std::array<sim::SimResult, 3> res;
    for (int p = 0; p < 3; ++p) {
      std::unique_ptr<sim::Policy> policy;
      sim::EewaPolicy* eewa = nullptr;
      if (p == 0) {
        policy = std::make_unique<sim::CilkPolicy>();
      } else if (p == 1) {
        policy = std::make_unique<sim::CilkDPolicy>();
      } else {
        auto e = std::make_unique<sim::EewaPolicy>(tr.class_names);
        eewa = e.get();
        policy = std::move(e);
      }
      const auto s0 = Clock::now();
      if (kind == RoundKind::kBare) {
        res[p] = sim::simulate(tr, *policy, opt);
        r.sim_wall_s += seconds_since(s0);
      } else {
        ProbePolicy probe(*policy, kind == RoundKind::kTraced);
        res[p] = sim::simulate(tr, probe, opt);
        r.sim_wall_s += seconds_since(s0);
        r.completed += probe.completed;
        r.callbacks_s += probe.callbacks_s();
        r.batch_start_s += probe.batch_start_s;
        r.place_task_s += probe.place_task_s;
        r.acquire_s += probe.acquire_s;
        r.task_done_s += probe.task_done_s;
        r.batch_end_s += probe.batch_end_s;
        r.acquire_calls += probe.acquire_calls;
        r.acquire_hits += probe.acquire_hits;
        if (eewa != nullptr) {
          r.batch_end_us.insert(r.batch_end_us.end(),
                                probe.batch_end_us.begin(),
                                probe.batch_end_us.end());
        }
      }
      r.tasks += tasks_of(tr);
      if (eewa != nullptr) {
        const auto& ctrl = eewa->controller();
        r.eewa_time_s += res[p].time_s;
        r.adjust_us += ctrl.adjust_overhead_us();
        r.eewa_batches += ctrl.batches_completed();
        r.plans_reused += ctrl.plans_reused();
        r.plans_incremental += ctrl.plans_incremental();
      }
    }
    r.results.push_back(std::move(res));
  }
  r.wall_s = seconds_since(t0);
  return r;
}

}  // namespace

void run_paper_suite(const Config& cfg, Result& out) {
  sim::SimOptions opt;
  opt.cores = 16;
  opt.seed = cfg.seed;

  std::vector<trace::TaskTrace> traces;
  const double setup_s = timed_setup(18, [&] {
    traces.clear();
    const auto cal = wl::reference_calibration();
    for (const auto& bench : wl::suite()) {
      traces.push_back(wl::build_trace(bench, cal, kBatches, cfg.seed));
    }
  });
  out.e2e("setup_s", setup_s);
  out.layer("workloads.build_trace_s", setup_s);

  const auto start = Clock::now();
  const Round first = run_round(traces, opt, RoundKind::kChecked);
  std::size_t expected = 0;
  for (const auto& tr : traces) expected += 3 * tasks_of(tr);
  out.attempt(expected);
  if (first.completed != expected) {
    out.fail(expected > first.completed ? expected - first.completed : 1,
             "paper_suite: " + std::to_string(first.completed) + " of " +
                 std::to_string(expected) + " trace tasks completed");
  }

  // Paper ratios (Fig. 6): EEWA over Cilk, geometric mean over traces.
  std::vector<double> e_rel, t_rel;
  std::size_t steals = 0, probes = 0, transitions = 0;
  for (const auto& res : first.results) {
    e_rel.push_back(res[2].energy_j / res[0].energy_j);
    t_rel.push_back(res[2].time_s / res[0].time_s);
    for (const auto& r : res) {
      steals += r.steals;
      probes += r.probes;
      transitions += r.transitions;
    }
  }
  const double time_vs_cilk = geomean(t_rel);
  out.layer("energy_vs_cilk", geomean(e_rel));
  out.layer("time_vs_cilk", time_vs_cilk);
  // Fig. 6: EEWA saves energy at most 3.7% slower than Cilk.
  out.check(time_vs_cilk <= kPaperTimeLimit,
            "paper_suite: EEWA/Cilk time " + std::to_string(time_vs_cilk) +
                " exceeds the paper's " + std::to_string(kPaperTimeLimit));
  out.layer("sim.machine.steals", static_cast<double>(steals));
  out.layer("sim.machine.probes", static_cast<double>(probes));
  out.layer("sim.machine.steal_success",
            probes ? static_cast<double>(steals) / static_cast<double>(probes)
                   : 0.0);
  out.layer("sim.machine.dvfs_transitions", static_cast<double>(transitions));
  out.layer("core.controller.searches",
            static_cast<double>(first.eewa_batches - first.plans_reused));
  out.layer("core.controller.plans_reused",
            static_cast<double>(first.plans_reused));
  out.layer("core.controller.plans_incremental",
            static_cast<double>(first.plans_incremental));

  std::vector<double> bare_tps, bare_wall, overhead_pct;
  std::vector<double> traced_wall, self_s, acquire_s, batch_start_s,
      place_task_s, task_done_s, batch_end_s;
  std::vector<double> batch_end_us;
  std::size_t acquire_calls = 0, acquire_hits = 0;
  bool traced_next = false;
  while (bare_tps.empty() || (cfg.trace && traced_wall.empty()) ||
         seconds_since(start) < cfg.seconds) {
    const RoundKind kind = traced_next ? RoundKind::kTraced : RoundKind::kBare;
    const Round r = run_round(traces, opt, kind);
    // Cilk and Cilk-D never read the host clock: every round must
    // reproduce round 0 bit for bit, which also proves no task was lost.
    for (std::size_t t = 0; t < r.results.size(); ++t) {
      for (int p = 0; p < 2; ++p) {
        const auto& a = r.results[t][p];
        const auto& b = first.results[t][p];
        out.check(a.time_s == b.time_s && a.energy_j == b.energy_j &&
                      a.steals == b.steals,
                  "paper_suite: " + a.policy + " on " + a.workload +
                      " diverged from round 0");
      }
    }
    if (kind == RoundKind::kBare) {
      bare_wall.push_back(r.wall_s);
      bare_tps.push_back(static_cast<double>(r.tasks) / r.sim_wall_s);
      overhead_pct.push_back(100.0 * r.adjust_us * 1e-6 / r.eewa_time_s);
    } else {
      out.attempt(expected);
      if (r.completed != expected) {
        out.fail(expected > r.completed ? expected - r.completed : 1,
                 "paper_suite: traced round lost tasks");
      }
      // The callbacks nest inside simulate(): their sum can never
      // exceed its wall time.
      out.check(r.callbacks_s <= r.sim_wall_s,
                "paper_suite: callback time exceeds simulate() wall");
      traced_wall.push_back(r.wall_s);
      self_s.push_back(r.sim_wall_s - r.callbacks_s);
      acquire_s.push_back(r.acquire_s);
      batch_start_s.push_back(r.batch_start_s);
      place_task_s.push_back(r.place_task_s);
      task_done_s.push_back(r.task_done_s);
      batch_end_s.push_back(r.batch_end_s);
      acquire_calls = r.acquire_calls;
      acquire_hits = r.acquire_hits;
      batch_end_us.insert(batch_end_us.end(), r.batch_end_us.begin(),
                          r.batch_end_us.end());
    }
    traced_next = cfg.trace && !traced_next;
  }

  out.e2e("ops_per_s", sustained(bare_tps));
  out.layer("sim_tasks_per_s", sustained(bare_tps));
  const double adjuster_overhead_pct = median(overhead_pct);
  out.layer("adjuster_overhead_pct", adjuster_overhead_pct);
  // Table III: the adjuster costs under 2% of EEWA's run time.
  out.check(adjuster_overhead_pct < kPaperOverheadPct,
            "paper_suite: adjuster overhead " +
                std::to_string(adjuster_overhead_pct) + "% is not under " +
                std::to_string(kPaperOverheadPct) + "%");
  if (cfg.trace) {
    out.layer("bench.trace_overhead", median(traced_wall) / median(bare_wall));
    out.layer("sim.machine.self_s", median(self_s));
    out.layer("sim.policy.acquire_s", median(acquire_s));
    out.layer("sim.policy.acquire_calls", static_cast<double>(acquire_calls));
    out.layer("sim.policy.acquire_hit_ratio",
              acquire_calls ? static_cast<double>(acquire_hits) /
                                  static_cast<double>(acquire_calls)
                            : 0.0);
    out.layer("sim.policy.batch_start_s", median(batch_start_s));
    out.layer("sim.policy.place_task_s", median(place_task_s));
    out.layer("sim.policy.task_done_s", median(task_done_s));
    out.layer("sim.policy.batch_end_s", median(batch_end_s));
    out.layer("core.controller.batch_end_p50_us",
              percentile(batch_end_us, 50.0));
    out.layer("core.controller.batch_end_p99_us",
              percentile(batch_end_us, 99.0));
  }
}

}  // namespace perfbench
