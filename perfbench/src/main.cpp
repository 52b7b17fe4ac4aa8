// eewa_perfbench — the EEWA benchmark program.
//
//   eewa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   eewa_perfbench --list-metrics
//
// Runs one workload (BENCH.md says why each exists), checks its outputs,
// prints every metric as "name = value unit" and ends with one JSON line:
// end-to-end metrics when untraced, per-layer metrics when traced.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double timed_setup(int reps, const std::function<void()>& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    s.push_back(seconds_since(t0));
  }
  return percentile(std::move(s), 90.0);
}

void Result::fail(std::uint64_t n, const std::string& why) {
  failed_ += n;
  if (problems_.size() < 16) problems_.push_back(why);
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (selftest.py compares the two).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

// Every traced run prints all of these; a layer the workload does not
// exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    // Paper quantities and headline rates, under their own names.
    {"sim_tasks_per_s", "1/s"},
    {"runtime_tasks_per_s", "1/s"},
    {"plan_p50_us", "us"},
    {"plan_p99_us", "us"},
    {"typed_plan_p50_us", "us"},
    {"typed_plan_p99_us", "us"},
    {"plan_energy_rel", "ratio"},
    {"energy_vs_cilk", "ratio"},
    {"time_vs_cilk", "ratio"},
    {"adjuster_overhead_pct", "%"},
    {"energy_per_task_mj", "mJ"},
    {"bench.trace_overhead", "ratio"},
    // sim: delegating-policy callback times and machine counters.
    {"sim.machine.self_s", "s"},
    {"sim.policy.acquire_s", "s"},
    {"sim.policy.acquire_calls", "count"},
    {"sim.policy.acquire_hit_ratio", "ratio"},
    {"sim.policy.batch_start_s", "s"},
    {"sim.policy.place_task_s", "s"},
    {"sim.policy.task_done_s", "s"},
    {"sim.policy.batch_end_s", "s"},
    {"sim.machine.steals", "count"},
    {"sim.machine.probes", "count"},
    {"sim.machine.steal_success", "ratio"},
    {"sim.machine.dvfs_transitions", "count"},
    {"sim.fleet.batches", "count"},
    {"sim.fleet.epochs", "count"},
    {"sim.fleet.parks", "count"},
    {"sim.fleet.wakes", "count"},
    {"sim.fleet.parked_machine_s", "sim_s"},
    {"sim.fleet.wake_stall_s", "sim_s"},
    {"sim.fleet.parallel_speedup", "ratio"},
    // trace and workloads: stream and trace generation.
    {"trace.arrivals_s", "s"},
    {"workloads.build_trace_s", "s"},
    // core: controller end of batch and the planner pipeline.
    {"core.controller.batch_end_p50_us", "us"},
    {"core.controller.batch_end_p99_us", "us"},
    {"core.controller.searches", "count"},
    {"core.controller.plans_reused", "count"},
    {"core.controller.plans_incremental", "count"},
    {"core.cc_build_us.homog", "us"},
    {"core.cc_build_us.typed", "us"},
    {"core.search_us.homog", "us"},
    {"core.search_us.typed", "us"},
    {"core.plan_carve_us.homog", "us"},
    {"core.plan_carve_us.typed", "us"},
    {"core.search.nodes.homog", "count"},
    {"core.search.nodes.typed", "count"},
    {"core.search.aborted_frac.homog", "ratio"},
    {"core.search.aborted_frac.typed", "ratio"},
    // runtime: batch latency and scheduler counters per executed task.
    {"runtime.batch_p50_us", "us"},
    {"runtime.batch_p99_us", "us"},
    {"runtime.pops", "1/task"},
    {"runtime.local_steals", "1/task"},
    {"runtime.cross_robs", "1/task"},
    {"runtime.probes", "1/task"},
    {"runtime.failed_sweeps", "1/task"},
    {"runtime.idle_sweeps", "1/task"},
    {"runtime.steal_success", "ratio"},
    {"runtime.adjust_us", "us"},
};

const char* kWorkloads[] = {"paper_suite",  "fleet_spread", "fleet_pack",
                            "plan_homog",   "plan_typed",   "runtime_storm"};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void usage() {
  std::fprintf(stderr,
               "usage: eewa_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       eewa_perfbench --list-metrics\n"
               "workloads:");
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
}

template <std::size_t N>
void print_metrics(const MetricDef (&defs)[N],
                   const std::map<std::string, double>& values,
                   Result& res, std::string& json) {
  json += "\"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      res.check(false, std::string(defs[i].name) + " is not finite");
      v = 0.0;
    }
    std::printf("%-36s = %.6g %s\n", defs[i].name, v, defs[i].unit);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", defs[i].name, v, defs[i].unit);
    json += buf;
  }
  json += "}";
}

int run(int argc, char** argv) {
  Config cfg;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const auto& m : kEndToEnd) std::printf("e2e %s %s\n", m.name, m.unit);
      for (const auto& m : kPerLayer) std::printf("layer %s %s\n", m.name, m.unit);
      return 0;
    }
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string val = argv[++i];
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::stoull(val);
    } else if (arg == "--seconds") {
      cfg.seconds = std::stod(val);
    } else if (arg == "--trace") {
      trace = std::stoi(val);
    } else {
      usage();
      return 2;
    }
  }
  const bool known = std::find(std::begin(kWorkloads), std::end(kWorkloads),
                               cfg.workload) != std::end(kWorkloads);
  if (!known || (trace != 0 && trace != 1) || !(cfg.seconds > 0.0)) {
    usage();
    return 2;
  }
  cfg.trace = trace == 1;

  Result res;
  const std::string& w = cfg.workload;
  try {
    if (w == "paper_suite") {
      run_paper_suite(cfg, res);
    } else if (w == "fleet_spread" || w == "fleet_pack") {
      run_fleet(cfg, res);
    } else if (w == "plan_homog" || w == "plan_typed") {
      run_plan(cfg, res);
    } else {
      run_runtime_storm(cfg, res);
    }
  } catch (const std::exception& e) {
    // The program refused to go on (the simulator throws when a policy
    // loses tasks): one failed operation, reported like any other.
    res.attempt(1);
    res.fail(1, w + " aborted: " + e.what());
  }
  res.e2e("peak_rss_mb", peak_rss_mb());
  if (res.attempted() == 0) {
    res.attempt(1);
    res.fail(1, "no operation was attempted");
  }

  std::printf("workload %s, seed %llu, %s\n", w.c_str(),
              static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? "traced" : "untraced");
  std::string json;
  if (cfg.trace) {
    print_metrics(kPerLayer, res.layer(), res, json);
  } else {
    print_metrics(kEndToEnd, res.e2e(), res, json);
    // The paper ratios and headline rates this run measured untraced.
    for (const auto& m : kPerLayer) {
      const auto it = res.layer().find(m.name);
      if (it == res.layer().end()) continue;
      std::printf("  %-34s = %.6g %s\n", m.name, it->second, m.unit);
    }
  }
  for (const auto& p : res.problems()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("attempted %llu, failed %llu, correct %s\n",
              static_cast<unsigned long long>(res.attempted()),
              static_cast<unsigned long long>(res.failed()),
              res.correct() ? "yes" : "no");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, %s}\n",
              res.correct() ? "true" : "false",
              static_cast<unsigned long long>(res.attempted()),
              static_cast<unsigned long long>(res.failed()), json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eewa_perfbench: %s\n", e.what());
    return 1;
  }
}
