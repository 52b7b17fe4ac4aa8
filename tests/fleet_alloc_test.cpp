// Allocation-freedom checks for the fleet hot loop, via the same
// counting global allocator spawn_path_test uses: once the reused
// buffers reach their high-water capacity, an epoch's worth of
// ArrivalStream::drain_until must perform zero heap allocations, and so
// must a whole Machine::run_batch on a fleet-shaped batch (the fleet
// runs one machine through hundreds of thousands of same-shaped
// batches).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "sim/fleet.hpp"
#include "sim/machine.hpp"
#include "trace/arrivals.hpp"

// ---------------------------------------------------------------------------
// Counting global allocator (mirrors spawn_path_test): every scalar new
// in this binary bumps a thread-local counter, so a test can measure the
// allocations between two points on its own thread exactly.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
thread_local std::uint64_t tl_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  ++tl_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eewa {
namespace {

trace::ArrivalSpec busy_spec() {
  trace::ArrivalSpec arr;
  arr.name = "alloc_test";
  arr.seed = 7;
  arr.cores = 64;
  arr.duration_s = 1.0;
  arr.load = 0.8;
  trace::ArrivalClassSpec light{"light", 1.0, 60e-6, 0.3, 0.0, 0.0, 1};
  arr.classes = {light};
  return arr;
}

TEST(FleetAlloc, DrainUntilIsAllocFreeInSteadyState) {
  const auto arr = busy_spec();
  trace::ArrivalStream stream(arr);
  std::vector<trace::Arrival> out;
  const double epoch_s = 0.02;
  // Warm-up epochs: let `out` find its high-water capacity.
  double t = 0.0;
  for (int e = 0; e < 10; ++e) {
    out.clear();
    t += epoch_s;
    ASSERT_GT(stream.drain_until(t, false, out), 0u);
  }
  // Steady state: clear + drain must not touch the heap.
  const std::uint64_t before = tl_heap_allocs;
  std::size_t drained = 0;
  for (int e = 0; e < 20; ++e) {
    out.clear();
    t += epoch_s;
    drained += stream.drain_until(t, false, out);
  }
  EXPECT_GT(drained, 0u) << "premise: the stream must still be flowing";
  EXPECT_EQ(tl_heap_allocs, before)
      << "drain_until allocated in steady state";
}

TEST(FleetAlloc, DrainUntilGrowsOnlyToTheHighWaterMark) {
  // A later epoch larger than any before it may allocate (capacity
  // growth), but re-draining an equal-sized epoch afterwards may not.
  const auto arr = busy_spec();
  trace::ArrivalStream a(arr), b(arr);
  std::vector<trace::Arrival> out;
  out.clear();
  a.drain_until(0.1, false, out);  // one big epoch sets the high water
  const std::size_t big = out.size();
  const std::uint64_t before = tl_heap_allocs;
  out.clear();
  b.drain_until(0.1, false, out);  // same bytes, same size, no growth
  EXPECT_EQ(out.size(), big);
  EXPECT_EQ(tl_heap_allocs, before);
}

/// Places round-robin, pops locally, steals, and asks for a repoll when
/// both fail — all through the Machine's own pools and without touching
/// the heap itself, so the allocation count below is the machine's.
class LeanPolicy : public sim::Policy {
 public:
  std::string name() const override { return "lean"; }
  void batch_start(sim::Machine& m, const trace::Batch& batch,
                   std::size_t) override {
    m.configure_pools(1);
    for (sim::TaskId i = 0; i < batch.tasks.size(); ++i) {
      if (batch.tasks[i].release_s == 0.0) place_task(m, i);
    }
  }
  void place_task(sim::Machine& m, sim::TaskId id) override {
    m.push_task(next_, 0, id);
    next_ = (next_ + 1) % m.cores();
  }
  std::optional<sim::TaskId> acquire(sim::Machine& m,
                                     std::size_t core) override {
    if (auto id = m.pop_local(core, 0)) return id;
    if (auto id = m.steal(core, 0)) return id;
    m.request_repoll(200e-6);
    return std::nullopt;
  }
  void task_done(sim::Machine&, std::size_t, const trace::TraceTask&,
                 double) override {}
  double batch_end(sim::Machine&, double) override { return 0.0; }

 private:
  std::size_t next_ = 0;
};

TEST(FleetAlloc, RunBatchIsAllocFreeInSteadyState) {
  // One 16-core machine fed a fleet epoch's worth of open-loop arrivals
  // per batch: released over 20 ms in arrival order, so nearly every
  // task is a mid-batch injection that wakes the idle cores.
  std::vector<trace::Batch> batches;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    trace::ArrivalSpec arr = busy_spec();
    arr.seed = seed;
    arr.cores = 16;
    arr.duration_s = 0.02;
    arr.load = 0.5;
    const auto tr =
        trace::arrivals_to_trace(arr, trace::generate_arrivals(arr));
    batches.push_back(tr.batches.at(0));
  }
  std::size_t injected = 0;
  for (const auto& t : batches[0].tasks) injected += t.release_s > 0.0;
  ASSERT_GT(injected, batches[0].tasks.size() / 2)
      << "premise: most tasks must arrive mid-batch";

  sim::SimOptions opt;
  opt.cores = 16;
  opt.keep_batch_stats = false;
  opt.fixed_adjuster_overhead_s = 0.0;
  sim::Machine m(opt);
  LeanPolicy policy;
  double t = 0.0;
  for (int round = 0; round < 4; ++round) {  // warm-up: high-water marks
    for (const auto& b : batches) t = m.run_batch(policy, b, t);
  }
  const std::size_t steals_before = m.total_steals();
  const std::size_t done_before = m.total_completed();
  const std::uint64_t before = tl_heap_allocs;
  for (int round = 0; round < 6; ++round) {
    for (const auto& b : batches) t = m.run_batch(policy, b, t);
  }
  EXPECT_EQ(tl_heap_allocs, before) << "run_batch allocated in steady state";
  EXPECT_GT(m.total_steals(), steals_before) << "premise: cores must steal";
  EXPECT_EQ(m.total_completed() - done_before,
            6 * (batches[0].tasks.size() + batches[1].tasks.size() +
                 batches[2].tasks.size()));
}

}  // namespace
}  // namespace eewa
