// runtime_storm: the real-thread runtime. rt::Runtime in batch mode with
// kEewa and 2 pinned workers (plus the calling thread, which blocks in
// run_batch). Each batch submits a few roots; every inner node spawns two
// children by ClassHandle and leaves do almost nothing, so the rate is
// the runtime's own cost: spawn, Chase-Lev deques, stealing and the
// barrier wakeup. Batch shapes (root count, tree depth) come from the
// seed. The leaf count of every batch is checked exactly.
//
// Service mode is left out: its measured capacity does not repeat
// closely enough on a shared host to carry a bound (BENCH.md).
#include <atomic>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace eewa;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kShapes = 64;
/// Timed chunk: tasks/s is taken per chunk of whole batches.
constexpr double kChunkS = 0.25;

struct Shape {
  std::vector<std::uint32_t> depths;  ///< one per root
  std::uint64_t leaves = 0;
  std::uint64_t tasks = 0;
};

struct Storm {
  rt::Runtime* rt = nullptr;
  rt::ClassHandle h;
  std::atomic<std::uint64_t>* leaves = nullptr;
};

void node(const Storm& s, std::uint32_t depth) {
  if (depth == 0) {
    s.leaves->fetch_add(1, std::memory_order_relaxed);
    return;
  }
  for (int child = 0; child < 2; ++child) {
    s.rt->spawn(s.h, [s, depth] { node(s, depth - 1); });
  }
}

Shape shape_of(std::vector<std::uint32_t> depths) {
  Shape sh;
  for (const std::uint32_t d : depths) {
    sh.leaves += 1ull << d;
    sh.tasks += (1ull << (d + 1)) - 1;
  }
  sh.depths = std::move(depths);
  return sh;
}

/// 4..12 roots per batch, each a tree of depth 8..10.
std::vector<Shape> make_shapes(std::uint64_t seed) {
  util::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  std::vector<Shape> shapes;
  for (std::size_t i = 0; i < kShapes; ++i) {
    std::vector<std::uint32_t> depths(4 + rng.bounded(9));
    for (auto& d : depths) d = static_cast<std::uint32_t>(8 + rng.bounded(3));
    shapes.push_back(shape_of(std::move(depths)));
  }
  return shapes;
}

std::vector<rt::TaskDesc> roots_of(const Shape& sh, const Storm& s) {
  std::vector<rt::TaskDesc> tasks;
  tasks.reserve(sh.depths.size());
  for (const std::uint32_t d : sh.depths) {
    tasks.push_back(rt::TaskDesc{"storm_node", [s, d] { node(s, d); }});
  }
  return tasks;
}

}  // namespace

void run_runtime_storm(const Config& cfg, Result& out) {
  std::atomic<std::uint64_t> leaves{0};
  std::unique_ptr<rt::Runtime> runtime;
  Storm storm;
  std::vector<Shape> shapes;
  const double setup_s = timed_setup(30, [&] {
    runtime.reset();
    rt::RuntimeOptions opt;
    opt.workers = kWorkers;
    opt.kind = rt::SchedulerKind::kEewa;
    opt.enable_pmc = false;  // no perf-counter syscalls in the number
    // Pinned: on a shared host, unpinned workers spread the measured
    // rate wider from run to run.
    opt.pin_threads = true;
    runtime = std::make_unique<rt::Runtime>(opt);
    storm = Storm{runtime.get(), runtime->handle("storm_node"), &leaves};
    shapes = make_shapes(cfg.seed);
    // Warm-up: EEWA's measurement batch, deque and arena growth, on one
    // fixed shape so set-up cost does not depend on the seed.
    runtime->run_batch(roots_of(shape_of({10, 10, 10, 10, 10, 10, 10, 10}), storm));
  });
  out.e2e("setup_s", setup_s);

  const obs::BatchReport before = runtime->metrics().totals();
  const double adjust_before = runtime->controller().adjust_overhead_us();
  const std::size_t batches_before = runtime->batches_run();

  std::vector<double> chunk_tps, batch_us;
  std::uint64_t tasks_total = 0;
  std::size_t next = 0;
  const auto start = Clock::now();
  while (chunk_tps.empty() || seconds_since(start) < cfg.seconds) {
    std::uint64_t chunk_tasks = 0;
    const auto c0 = Clock::now();
    double chunk_s = 0.0;
    while (chunk_s < kChunkS) {
      const Shape& sh = shapes[next++ % shapes.size()];
      const std::uint64_t seen = leaves.load(std::memory_order_relaxed);
      const auto b0 = Clock::now();
      runtime->run_batch(roots_of(sh, storm));
      batch_us.push_back(seconds_since(b0) * 1e6);
      const std::uint64_t got = leaves.load(std::memory_order_relaxed) - seen;
      out.attempt(sh.tasks);
      if (got != sh.leaves) {
        out.fail(got > sh.leaves ? got - sh.leaves : sh.leaves - got,
                 "runtime_storm: batch produced " + std::to_string(got) +
                     " leaves, expected " + std::to_string(sh.leaves));
      }
      chunk_tasks += sh.tasks;
      chunk_s = seconds_since(c0);
    }
    chunk_tps.push_back(static_cast<double>(chunk_tasks) / chunk_s);
    tasks_total += chunk_tasks;
  }

  out.e2e("ops_per_s", sustained(chunk_tps));
  out.layer("runtime_tasks_per_s", sustained(chunk_tps));
  std::printf("runtime_storm: %zu batches, %zu chunks\n", batch_us.size(),
              chunk_tps.size());
  if (!cfg.trace) return;

  // The runtime always keeps these counters; reading them adds nothing
  // to the timed loop, so the traced run is the untraced one.
  const obs::BatchReport after = runtime->metrics().totals();
  const auto per_task = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b) / static_cast<double>(tasks_total);
  };
  out.check(after.tasks - before.tasks == tasks_total,
            "runtime_storm: runtime counted " +
                std::to_string(after.tasks - before.tasks) +
                " tasks, batches held " + std::to_string(tasks_total));
  out.layer("bench.trace_overhead", 1.0);
  out.layer("runtime.batch_p50_us", percentile(batch_us, 50.0));
  out.layer("runtime.batch_p99_us", percentile(batch_us, 99.0));
  out.layer("runtime.pops", per_task(after.pops, before.pops));
  out.layer("runtime.local_steals",
            per_task(after.local_steals, before.local_steals));
  out.layer("runtime.cross_robs", per_task(after.cross_robs, before.cross_robs));
  out.layer("runtime.probes", per_task(after.probes, before.probes));
  out.layer("runtime.failed_sweeps",
            per_task(after.failed_sweeps, before.failed_sweeps));
  out.layer("runtime.idle_sweeps",
            per_task(after.idle_sweeps, before.idle_sweeps));
  const std::uint64_t steals = (after.local_steals - before.local_steals) +
                               (after.cross_robs - before.cross_robs);
  const std::uint64_t probes = after.probes - before.probes;
  out.layer("runtime.steal_success",
            probes ? static_cast<double>(steals) / static_cast<double>(probes)
                   : 0.0);
  const std::size_t batches = runtime->batches_run() - batches_before;
  out.layer("runtime.adjust_us",
            (runtime->controller().adjust_overhead_us() - adjust_before) /
                static_cast<double>(batches));
}

}  // namespace perfbench
