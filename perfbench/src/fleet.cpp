// fleet_spread / fleet_pack: sim::Fleet with 64 x 16-core EEWA machines
// on the bench_fleet stream shape (light/heavy classes, load 0.5), open
// loop, simulated as fast as the host allows.
//
//   fleet_spread: round-robin placement on the serial engine. Load is
//     spread thin, so most cores idle, every arrival wakes idle cores and
//     failed steals follow; routing is trivial and nothing parks.
//   fleet_pack: pack-and-park placement on 4 threads. Dense machines,
//     tournament-tree routing on every arrival, park/wake consolidation
//     and the thread pool's parallel step with a serial merge.
//
// Fleet::run builds its policies internally, so this workload reports
// counts from the FleetReport, not callback times. Every round replays
// the same stream and must reproduce round 0's report bit for bit.
#include <cstdio>
#include <limits>

#include "common.hpp"
#include "sim/fleet.hpp"
#include "trace/arrivals.hpp"

namespace perfbench {
namespace {

using namespace eewa;

constexpr std::size_t kMachines = 64;
constexpr std::size_t kCores = 16;
/// Simulated stream length: ~640k arrivals, under a second of host time
/// per serial round, so a run holds enough rounds (about 20) for its
/// 10th-percentile rate not to be its slowest round.
constexpr double kStreamS = 0.2;
constexpr double kEpochS = 0.02;

trace::ArrivalSpec stream(std::uint64_t seed, double duration_s) {
  trace::ArrivalSpec arr;
  arr.name = "perfbench_fleet";
  arr.seed = seed;
  arr.cores = kMachines * kCores;
  arr.duration_s = duration_s;
  arr.load = 0.5;
  trace::ArrivalClassSpec light;
  light.name = "light";
  light.weight = 1.0;
  light.mean_work_s = 100e-6;
  light.cv = 0.3;
  trace::ArrivalClassSpec heavy;
  heavy.name = "heavy";
  heavy.weight = 0.25;
  heavy.mean_work_s = 400e-6;
  heavy.cv = 0.2;
  heavy.mem_alpha = 0.1;
  arr.classes = {light, heavy};
  return arr;
}

sim::FleetOptions options(bool pack, std::uint64_t seed, std::size_t threads) {
  sim::FleetOptions opts;
  opts.machines = kMachines;
  opts.machine.cores = kCores;
  opts.machine.seed = seed;
  opts.epoch_s = kEpochS;
  opts.placement = pack ? "pack" : "round-robin";
  opts.threads = threads;
  return opts;
}

/// Drain the stream standalone, epoch by epoch as the fleet does, and
/// count its arrivals: the reference every fleet round must route.
std::size_t count_arrivals(const trace::ArrivalSpec& spec) {
  trace::ArrivalStream s(spec);
  std::vector<trace::Arrival> buf;
  std::size_t n = 0;
  for (double t = kEpochS; t < spec.duration_s + kEpochS; t += kEpochS) {
    buf.clear();
    n += s.drain_until(t, false, buf);
  }
  buf.clear();
  n += s.drain_until(std::numeric_limits<double>::infinity(), true, buf);
  return n;
}

}  // namespace

void run_fleet(const Config& cfg, Result& out) {
  const bool pack = cfg.workload == "fleet_pack";
  const std::size_t threads = pack ? 4 : 1;
  const auto spec = stream(cfg.seed, kStreamS);
  const auto opts = options(pack, cfg.seed, threads);

  std::size_t offered = 0;
  std::vector<double> drain_s;
  const double setup_s = timed_setup(10, [&] {
    const auto t0 = Clock::now();
    offered = count_arrivals(spec);
    drain_s.push_back(seconds_since(t0));
    // Warm-up: a short stream through the same fleet configuration.
    sim::Fleet(opts, stream(cfg.seed, 2 * kEpochS)).run();
  });
  out.e2e("setup_s", setup_s);
  out.layer("trace.arrivals_s", median(drain_s));

  const auto start = Clock::now();
  obs::FleetReport first;
  std::vector<double> tps, wall;
  while (wall.empty() || seconds_since(start) < cfg.seconds) {
    const auto t0 = Clock::now();
    obs::FleetReport rep = sim::Fleet(opts, spec).run();
    const double w = seconds_since(t0);
    wall.push_back(w);
    tps.push_back(static_cast<double>(rep.offered) / w);

    out.attempt(rep.offered);
    const std::size_t lost = rep.routed > rep.completed
                                 ? rep.routed - rep.completed
                                 : rep.completed - rep.routed;
    if (rep.shed != 0 || lost != 0 || rep.in_flight != 0) {
      out.fail(rep.shed + lost,
               cfg.workload + ": conservation broke (shed " +
                   std::to_string(rep.shed) + ", routed " +
                   std::to_string(rep.routed) + ", completed " +
                   std::to_string(rep.completed) + ", in flight " +
                   std::to_string(rep.in_flight) + ")");
    }
    if (rep.offered != offered) {
      out.fail(rep.offered > offered ? rep.offered - offered
                                     : offered - rep.offered,
               cfg.workload + ": fleet offered " +
                   std::to_string(rep.offered) + " tasks, the stream holds " +
                   std::to_string(offered));
    }
    if (wall.size() == 1) {
      first = std::move(rep);
    } else {
      out.check(rep == first,
                cfg.workload + ": FleetReport differs from round 0");
    }
  }

  out.e2e("ops_per_s", sustained(tps));
  out.layer("sim_tasks_per_s", sustained(tps));
  out.layer("energy_per_task_mj",
            first.completed ? 1e3 * first.energy_j /
                                  static_cast<double>(first.completed)
                            : 0.0);
  std::printf("%s: offered %zu tasks per round, %zu rounds\n",
              cfg.workload.c_str(), first.offered, wall.size());

  if (!cfg.trace) return;
  std::size_t batches = 0, steals = 0, probes = 0, transitions = 0;
  double wake_stall_s = 0.0;
  for (const auto& m : first.per_machine) {
    batches += m.batches;
    steals += m.steals;
    probes += m.probes;
    transitions += m.dvfs_transitions;
    wake_stall_s += m.wake_stall_s;
  }
  out.layer("sim.fleet.batches", static_cast<double>(batches));
  out.layer("sim.fleet.epochs", static_cast<double>(first.epochs));
  out.layer("sim.fleet.parks", static_cast<double>(first.parks));
  out.layer("sim.fleet.wakes", static_cast<double>(first.wakes));
  out.layer("sim.fleet.parked_machine_s", first.parked_machine_s);
  out.layer("sim.fleet.wake_stall_s", wake_stall_s);
  out.layer("sim.machine.steals", static_cast<double>(steals));
  out.layer("sim.machine.probes", static_cast<double>(probes));
  out.layer("sim.machine.steal_success",
            probes ? static_cast<double>(steals) / static_cast<double>(probes)
                   : 0.0);
  out.layer("sim.machine.dvfs_transitions", static_cast<double>(transitions));
  // The fleet is counted, not instrumented: a traced round is an
  // untraced one, so the overhead ratio is 1 by construction.
  out.layer("bench.trace_overhead", 1.0);

  // Serial over 4-thread wall time on the same stream; the reports must
  // match bit for bit whatever the thread count.
  const auto other = options(pack, cfg.seed, pack ? 1 : 4);
  const auto t0 = Clock::now();
  const obs::FleetReport rep = sim::Fleet(other, spec).run();
  const double other_wall = seconds_since(t0);
  out.check(rep == first,
            cfg.workload + ": FleetReport differs across thread counts");
  const double serial = pack ? other_wall : median(wall);
  const double parallel = pack ? median(wall) : other_wall;
  out.layer("sim.fleet.parallel_speedup", serial / parallel);
}

}  // namespace perfbench
