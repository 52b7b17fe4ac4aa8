// Tests for the discrete-event machine itself: pools, frequency
// requests, execution-time model, and conservation properties (every
// task runs once, makespan bounds, energy = ∫P dt bounds).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/fleet.hpp"
#include "sim/machine.hpp"
#include "sim/policies.hpp"
#include "sim/simulate.hpp"
#include "trace/arrivals.hpp"
#include "trace/synthetic.hpp"

namespace eewa::sim {
namespace {

SimOptions small_options(std::size_t cores = 4) {
  SimOptions opt;
  opt.cores = cores;
  opt.seed = 7;
  return opt;
}

TEST(Machine, PoolsPushPopSteal) {
  Machine m(small_options());
  m.configure_pools(2);
  m.push_task(0, 0, 11);
  m.push_task(0, 0, 12);
  m.push_task(1, 1, 13);
  EXPECT_EQ(m.group_task_count(0), 2u);
  EXPECT_EQ(m.group_task_count(1), 1u);
  // Local pop is LIFO.
  EXPECT_EQ(m.pop_local(0, 0), std::optional<TaskId>(12));
  EXPECT_EQ(m.group_task_count(0), 1u);
  // Steal takes the oldest from a victim.
  const auto stolen = m.steal(2, 0);
  EXPECT_EQ(stolen, std::optional<TaskId>(11));
  EXPECT_EQ(m.total_steals(), 1u);
  EXPECT_GT(m.total_probes(), 0u);
  // Empty group steals return nothing immediately.
  EXPECT_FALSE(m.steal(2, 0).has_value());
  EXPECT_FALSE(m.pop_local(3, 1).has_value());
}

TEST(Machine, RequestRungValidatesAndCounts) {
  Machine m(small_options());
  EXPECT_EQ(m.rung(0), 0u);
  m.request_rung(0, 3);
  EXPECT_EQ(m.rung(0), 3u);
  EXPECT_EQ(m.total_transitions(), 1u);
  m.request_rung(0, 3);  // no-op
  EXPECT_EQ(m.total_transitions(), 1u);
  EXPECT_THROW(m.request_rung(0, 9), std::out_of_range);
}

TEST(Machine, ExecTimeModel) {
  Machine m(small_options());
  trace::TraceTask cpu{0, 1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(m.exec_time(cpu, 0), 1.0);
  EXPECT_NEAR(m.exec_time(cpu, 3), 2.5 / 0.8, 1e-12);
  // Fully memory-bound work does not scale with frequency.
  trace::TraceTask mem{0, 1.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(m.exec_time(mem, 3), 1.0);
  // Half-memory-bound is in between.
  trace::TraceTask half{0, 1.0, 0.0, 0.5};
  EXPECT_NEAR(m.exec_time(half, 3), 0.5 + 0.5 * 2.5 / 0.8, 1e-12);
}

TEST(Machine, RejectsZeroCoresOrPools) {
  auto opt = small_options(0);
  EXPECT_THROW(Machine m(opt), std::invalid_argument);
  Machine m(small_options());
  EXPECT_THROW(m.configure_pools(0), std::invalid_argument);
}

// ------------------------------------------------ conservation checks --

TEST(Simulate, EveryTaskRunsExactlyOnce) {
  const auto t = trace::balanced(40, 0.01, 3, 1);
  CilkPolicy p;
  const auto res = simulate(t, p, small_options());
  // All work accounted: active core time >= total work (spin included).
  EXPECT_GE(res.time_s, 0.0);
  // The per-batch span must be at least total-work / capacity.
  for (std::size_t b = 0; b < t.batch_count(); ++b) {
    const double lower =
        t.batches[b].total_work_s() / static_cast<double>(4);
    EXPECT_GE(res.batches[b].span_s, lower * 0.999);
  }
}

TEST(Simulate, MakespanAtLeastCriticalPath) {
  // One giant task dominates: makespan >= its execution time.
  trace::TaskTrace t;
  t.name = "crit";
  t.class_names = {"c"};
  t.batches.resize(1);
  t.batches[0].tasks = {{0, 5.0, 0, 0}, {0, 0.1, 0, 0}, {0, 0.1, 0, 0}};
  CilkPolicy p;
  const auto res = simulate(t, p, small_options());
  EXPECT_GE(res.time_s, 5.0);
  EXPECT_LT(res.time_s, 5.5);
}

TEST(Simulate, EnergyBoundedByPowerEnvelope) {
  const auto t = trace::balanced(32, 0.01, 2, 2);
  CilkPolicy p;
  const auto opt = small_options();
  const auto res = simulate(t, p, opt);
  const double hi = opt.power.machine_all_active_w(4, 0) * res.time_s;
  const double lo = opt.power.floor_w() * res.time_s;
  EXPECT_LE(res.energy_j, hi * 1.0001);
  EXPECT_GE(res.energy_j, lo);
  EXPECT_GT(res.cpu_energy_j, 0.0);
  EXPECT_LT(res.cpu_energy_j, res.energy_j);
}

TEST(Simulate, ResidencySumsToCoreTime) {
  const auto t = trace::balanced(32, 0.01, 2, 3);
  CilkPolicy p;
  const auto res = simulate(t, p, small_options());
  double residency = 0.0;
  for (double r : res.rung_residency_s) residency += r;
  // Every core is accounted from batch start to barrier each batch
  // (spin included), so total residency ~= cores × span total.
  double span_total = 0.0;
  for (const auto& b : res.batches) span_total += b.span_s + b.overhead_s;
  EXPECT_NEAR(residency, 4.0 * span_total, 0.05 * residency + 1e-9);
}

TEST(Simulate, StragglerStallTailKeepsResidencyExact) {
  // Cilk-D on 2 cores: the core whose task finishes just before the
  // other's pays its park-at-slowest transition stall (50 µs) and is
  // charged *past* the last completion. The batch barrier is wherever
  // the last core actually stopped; re-charging the straggler's tail
  // from the makespan would double-count it.
  trace::TaskTrace t;
  t.name = "straggler";
  t.class_names = {"c"};
  trace::Batch b;
  b.tasks.push_back({0, 1e-3, 0.0, 0.0, 0.0});
  b.tasks.push_back({0, 0.99e-3, 0.0, 0.0, 0.0});
  t.batches.push_back(b);
  CilkDPolicy p;
  auto opt = small_options(2);
  opt.fixed_adjuster_overhead_s = 0.0;
  const auto res = simulate(t, p, opt);
  double residency = 0.0;
  for (double r : res.rung_residency_s) residency += r;
  EXPECT_NEAR(residency, 2.0 * res.time_s, 1e-9 * residency + 1e-12);
}

TEST(Simulate, MidStallInjectionDoesNotDoubleChargeResidency) {
  // Cilk-D, one core: after finishing the first task the core fails to
  // acquire and pays the 50 µs drop-to-slowest stall; the second task is
  // released inside that stall window, waking the core "in the past".
  // The wake must clamp to the moment the core actually went idle —
  // rewinding re-bills stall time that was already charged and inflates
  // residency.
  trace::TaskTrace t;
  t.name = "inject";
  t.class_names = {"c"};
  trace::Batch b;
  b.tasks.push_back({0, 1e-3, 0.0, 0.0, 0.0});
  b.tasks.push_back({0, 1e-3, 0.0, 0.0, 1.02e-3});  // lands mid-stall
  t.batches.push_back(b);
  CilkDPolicy p;
  auto opt = small_options(1);
  opt.fixed_adjuster_overhead_s = 0.0;
  const auto res = simulate(t, p, opt);
  double residency = 0.0;
  for (double r : res.rung_residency_s) residency += r;
  EXPECT_NEAR(residency, res.time_s, 1e-9 * residency + 1e-12);
}

TEST(Simulate, EmptyBatchesAreHandled) {
  trace::TaskTrace t;
  t.name = "empty";
  t.class_names = {"c"};
  t.batches.resize(2);  // two empty batches
  CilkPolicy p;
  const auto res = simulate(t, p, small_options());
  EXPECT_EQ(res.batches.size(), 2u);
  EXPECT_DOUBLE_EQ(res.batches[0].span_s, 0.0);
}

TEST(Simulate, DeterministicForFixedSeed) {
  const auto t = trace::bimodal(4, 0.2, 28, 0.02, 3, 9);
  CilkPolicy p1, p2;
  const auto a = simulate(t, p1, small_options());
  const auto b = simulate(t, p2, small_options());
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.steals, b.steals);
}

TEST(Simulate, BatchStatsRecorded) {
  const auto t = trace::balanced(32, 0.01, 3, 4);
  CilkPolicy p;
  const auto res = simulate(t, p, small_options());
  ASSERT_EQ(res.batches.size(), 3u);
  for (const auto& b : res.batches) {
    EXPECT_GT(b.span_s, 0.0);
    EXPECT_EQ(b.cores_per_rung.size(), 4u);
    EXPECT_EQ(b.cores_per_rung[0], 4u);  // Cilk keeps everyone at F0
    EXPECT_GT(b.energy_j, 0.0);
  }
}

TEST(Simulate, NamedFactoryWorks) {
  const auto t = trace::balanced(16, 0.01, 2, 5);
  const auto opt = small_options();
  EXPECT_EQ(simulate_named(t, "cilk", opt).policy, "cilk");
  EXPECT_EQ(simulate_named(t, "cilk-d", opt).policy, "cilk-d");
  EXPECT_EQ(simulate_named(t, "eewa", opt).policy, "eewa");
  EXPECT_THROW(simulate_named(t, "nope", opt), std::invalid_argument);
}

TEST(Machine, ParkWakeChargeClockStaysMonotone) {
  // The fleet's park/drain/wake cycle on a bare machine: the charge
  // clock advances through batch, idle, park and wake, never rewinds,
  // and the parked interval is never billed to the cores. This is the
  // pinned regression for the session-level charge clamp — the same
  // never-rewind contract charged_until_ enforces inside a batch.
  Machine m(small_options());
  CilkPolicy p;
  trace::Batch b;
  b.tasks.push_back({0, 1e-3, 0.0, 0.0, 0.0});
  b.tasks.push_back({0, 1e-3, 0.0, 0.0, 0.0});

  const double end1 = m.run_batch(p, b, 0.0);
  EXPECT_TRUE(m.powered());
  EXPECT_DOUBLE_EQ(m.charged_through(), end1);
  EXPECT_EQ(m.queued_tasks(), 0u);

  m.run_idle(end1 + 1e-3);
  EXPECT_DOUBLE_EQ(m.charged_through(), end1 + 1e-3);
  m.run_idle(end1);  // stale idle request: no-op, never rewinds
  EXPECT_DOUBLE_EQ(m.charged_through(), end1 + 1e-3);

  const double park_at = end1 + 2e-3;
  m.park(park_at);  // charges the idle tail, then powers off
  EXPECT_FALSE(m.powered());
  EXPECT_DOUBLE_EQ(m.charged_through(), park_at);
  const double charged_at_park =
      m.account().active_s() + m.account().halted_s();
  EXPECT_NEAR(charged_at_park, 4.0 * park_at, 1e-12);

  // Simulated silicon cannot execute, idle or re-park while off.
  EXPECT_THROW(m.run_idle(park_at + 1e-3), std::logic_error);
  EXPECT_THROW(m.park(park_at + 1e-3), std::logic_error);
  EXPECT_THROW(m.run_batch(p, b, park_at + 1e-3), std::logic_error);
  // Waking in the past would re-bill the pre-park interval.
  EXPECT_THROW(m.wake(park_at - 1e-3), std::logic_error);

  const double wake_at = park_at + 5e-3;
  m.wake(wake_at);
  EXPECT_TRUE(m.powered());
  EXPECT_DOUBLE_EQ(m.charged_through(), wake_at);
  EXPECT_THROW(m.wake(wake_at), std::logic_error);  // already powered
  // The parked interval was not billed to the cores.
  EXPECT_NEAR(m.account().active_s() + m.account().halted_s(),
              charged_at_park, 1e-12);

  // A batch must not start inside the already-charged region...
  EXPECT_THROW(m.run_batch(p, b, park_at), std::logic_error);
  // ...and a clean post-wake batch keeps the core-second identity:
  // every powered second billed exactly once, the parked gap skipped.
  const double end2 = m.run_batch(p, b, wake_at);
  EXPECT_DOUBLE_EQ(m.charged_through(), end2);
  EXPECT_EQ(m.total_completed(), 4u);
  const double powered_s = park_at + (end2 - wake_at);
  EXPECT_NEAR(m.account().active_s() + m.account().halted_s(),
              4.0 * powered_s, 1e-9);
}

// ------------------------------------------------ event-loop identity --

/// FNV-1a over the bit patterns of everything a run reports.
struct SimDigest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const SimResult& r) {
    add(r.time_s);
    add(r.energy_j);
    add(r.cpu_energy_j);
    add(std::uint64_t{r.steals});
    add(std::uint64_t{r.probes});
    add(std::uint64_t{r.transitions});
    for (const auto& b : r.batches) {
      add(b.span_s);
      add(b.overhead_s);
      for (const std::size_t n : b.cores_per_rung) add(std::uint64_t{n});
      add(std::uint64_t{b.steals});
      add(std::uint64_t{b.probes});
      add(std::uint64_t{b.transitions});
      add(b.core_energy_j);
      add(b.energy_j);
    }
    for (const double s : r.rung_residency_s) add(s);
  }
  void add(const obs::FleetReport& r) {
    add(std::uint64_t{r.epochs});
    add(r.horizon_s);
    add(std::uint64_t{r.offered});
    add(std::uint64_t{r.completed});
    add(std::uint64_t{r.parks});
    add(std::uint64_t{r.wakes});
    add(r.powered_machine_s);
    add(r.parked_machine_s);
    add(r.energy_j);
    for (const auto& m : r.per_machine) {
      add(std::uint64_t{m.routed});
      add(std::uint64_t{m.completed});
      add(std::uint64_t{m.batches});
      add(m.powered_s);
      add(m.wake_stall_s);
      add(m.first_start_s);
      add(m.charged_core_s);
      add(m.core_energy_j);
      add(m.floor_energy_j);
      add(m.sleep_energy_j);
      add(std::uint64_t{m.steals});
      add(std::uint64_t{m.probes});
      add(std::uint64_t{m.dvfs_transitions});
    }
  }
};

/// simulate() without the trace validation that rejects zero-work
/// tasks: the same back-to-back run_batch loop on one machine.
SimResult simulate_unchecked(const trace::TaskTrace& t, Policy& policy,
                             const SimOptions& options) {
  Machine m(options);
  double now = 0.0;
  for (const auto& b : t.batches) now = m.run_batch(policy, b, now);
  return m.finish(now, policy.name(), t.name);
}

/// A released-over-time synthetic trace; every third task is zero-work
/// when `zero_work` is set (with no dispatch cost those complete at the
/// instant they start, ahead of any wake due at that instant).
trace::TaskTrace released_trace(std::uint64_t seed, bool zero_work) {
  trace::SyntheticSpec spec;
  spec.name = "released";
  spec.batches = 4;
  spec.seed = seed;
  spec.release_window_s = 2e-3;
  spec.classes = {{"light", 40, 60e-6, 0.4, 0.0, 0.0},
                  {"heavy", 12, 400e-6, 0.2, 0.01, 0.2}};
  auto t = trace::generate(spec);
  if (zero_work) {
    for (auto& b : t.batches) {
      for (std::size_t i = 0; i < b.tasks.size(); i += 3) {
        b.tasks[i].work_s = 0.0;
      }
    }
  }
  return t;
}

// Pins every simulated bit of the event loop: fleets of every policy and
// placement, plus simulate() with mid-batch releases under each policy
// and the machine options that change how idle cores, probes and
// zero-length tasks are handled. The value was recorded before the
// injection cursor and the lazy wake wave replaced per-event heap
// entries; a change here changed the model, not its speed.
TEST(SimMachine, PinnedEventLoopDigest) {
  SimDigest d;
  for (const char* policy : {"eewa", "cilk", "cilk-d", "ondemand",
                             "sharing"}) {
    for (const char* placement : {"round-robin", "least-loaded", "pack"}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        FleetOptions opts;
        opts.machines = 4;
        opts.machine.cores = 4;
        opts.machine.seed = seed;
        opts.epoch_s = 0.01;
        opts.policy = policy;
        opts.placement = placement;
        trace::ArrivalSpec arr;
        arr.name = "digest";
        arr.seed = 100 + seed;
        arr.cores = 16;
        arr.duration_s = 0.04;
        arr.load = 0.6;
        arr.classes = {{"light", 1.0, 60e-6, 0.3, 0.0, 0.0, 1},
                       {"heavy", 0.3, 200e-6, 0.2, 0.01, 0.1, 1}};
        d.add(Fleet(opts, arr).run());
      }
    }
  }

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (int variant = 0; variant < 4; ++variant) {
      SimOptions opt;
      opt.cores = 8;
      opt.seed = seed;
      opt.fixed_adjuster_overhead_s = 20e-6;
      opt.idle_halt = variant == 1;
      opt.cores_per_socket = variant == 2 ? 4 : 0;
      const bool zero_work = variant == 3;
      if (zero_work) opt.dispatch_overhead_s = 0.0;
      const auto t = released_trace(seed, zero_work);
      const auto run = [&](Policy& p) {
        return zero_work ? simulate_unchecked(t, p, opt)
                         : simulate(t, p, opt);
      };
      for (const char* name : {"cilk", "cilk-d", "ondemand", "sharing",
                               "eewa"}) {
        d.add(run(*make_policy(name, t.class_names)));
      }
      std::vector<std::size_t> rungs(opt.cores, 3);
      rungs[0] = rungs[1] = 0;
      WatsPolicy wats(rungs, t.class_names);
      d.add(run(wats));
    }
  }
  EXPECT_EQ(d.h, 0x4e71353fe261ec05ULL) << std::hex << d.h;
}

/// Hands every task to core 0 and logs placements and acquisitions, so
/// a test can read off the order injections and wakes were served in.
class RecordingPolicy : public Policy {
 public:
  std::vector<TaskId> placed;
  std::vector<std::pair<double, std::size_t>> acquires;  // (time, core)

  std::string name() const override { return "recording"; }
  void batch_start(Machine&, const trace::Batch& batch,
                   std::size_t) override {
    for (TaskId i = 0; i < batch.tasks.size(); ++i) {
      if (batch.tasks[i].release_s == 0.0) queue_.push_back(i);
    }
  }
  void place_task(Machine&, TaskId id) override {
    placed.push_back(id);
    queue_.push_back(id);
  }
  std::optional<TaskId> acquire(Machine& m, std::size_t core) override {
    acquires.emplace_back(m.now_s(), core);
    if (core != 0 || queue_.empty()) return std::nullopt;
    const TaskId id = queue_.front();
    queue_.erase(queue_.begin());
    return id;
  }
  void task_done(Machine&, std::size_t, const trace::TraceTask&,
                 double) override {}
  double batch_end(Machine&, double) override { return 0.0; }

 private:
  std::vector<TaskId> queue_;
};

TEST(Machine, EqualTimeInjectionsServeInIndexOrder) {
  // Core 0 runs task 0 until t = 1 ms; cores 1-3 idle from t = 0. Task 2
  // is released alone at 0.3 ms, tasks 1, 3 and 4 together at 0.5 ms.
  // Equal-time injections are placed in task-index order, and each of
  // the k injections at one instant wakes every then-idle core once:
  // cores 1-3 re-acquire k times each, ascending by core, while the
  // busy core 0 is not woken at all.
  trace::Batch b;
  b.tasks.push_back({0, 1e-3, 0.0, 0.0, 0.0});
  b.tasks.push_back({0, 1e-4, 0.0, 0.0, 5e-4});
  b.tasks.push_back({0, 1e-4, 0.0, 0.0, 3e-4});
  b.tasks.push_back({0, 1e-4, 0.0, 0.0, 5e-4});
  b.tasks.push_back({0, 1e-4, 0.0, 0.0, 5e-4});
  auto opt = small_options();
  opt.fixed_adjuster_overhead_s = 0.0;
  Machine m(opt);
  RecordingPolicy p;
  m.run_batch(p, b, 0.0);

  EXPECT_EQ(p.placed, (std::vector<TaskId>{2, 1, 3, 4}));
  std::vector<std::size_t> woken_at_03, woken_at_05;
  for (const auto& [t, core] : p.acquires) {
    if (t == 3e-4) woken_at_03.push_back(core);
    if (t == 5e-4) woken_at_05.push_back(core);
  }
  EXPECT_EQ(woken_at_03, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(woken_at_05,
            (std::vector<std::size_t>{1, 1, 1, 2, 2, 2, 3, 3, 3}));
  EXPECT_EQ(m.total_completed(), 5u);
}

TEST(Machine, ParkRefusesToStrandQueuedTasks) {
  Machine m(small_options());
  m.configure_pools(1);
  m.push_task(0, 0, 0);
  EXPECT_EQ(m.queued_tasks(), 1u);
  EXPECT_THROW(m.park(1.0), std::logic_error);
  EXPECT_TRUE(m.powered());  // the refused park left the machine up
  ASSERT_TRUE(m.pop_local(0, 0).has_value());
  m.park(1.0);
  EXPECT_FALSE(m.powered());
}

}  // namespace
}  // namespace eewa::sim
