// Shared plumbing for the EEWA benchmark: the run configuration, the
// result record every workload fills, wall-clock helpers and order
// statistics. Nothing here calls into the repository's libraries, so the
// benchmark's own arithmetic never depends on the code it measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile of a sample, q in [0, 100]; 0 when empty.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}
/// The rate a run sustained: the 10th percentile of its per-round (or
/// per-chunk) rates. On a shared host the rounds split between a steady
/// contended state and bursts of spare capacity that come and go over
/// tens of seconds; the median lands in whichever state a run happened
/// to catch, while the 10th percentile tracks the steady state (BENCH.md,
/// "Host noise").
inline double sustained(std::vector<double> rates) {
  return percentile(std::move(rates), 10.0);
}
/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double>& v);

/// Run `setup` `reps` times, timing each; returns the 90th percentile of
/// the times in seconds. Like `sustained`, it tracks the host's steady
/// contended state rather than a burst of spare capacity: over twelve
/// runs its spread was about half that of the median (BENCH.md).
double timed_setup(int reps, const std::function<void()>& setup);

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Everything one run reports. End-to-end metrics are printed by an
/// untraced run, per-layer metrics by a traced one.
class Result {
 public:
  /// Count `n` operations as attempted.
  void attempt(std::uint64_t n) { attempted_ += n; }
  /// Record `n` failed operations (a lost or shed task, a missing plan,
  /// a wrong leaf count) and why; the run is then not correct.
  void fail(std::uint64_t n, const std::string& why);
  /// An output check that is not tied to an operation count (bitwise
  /// determinism, an accounting identity): counts as one failure.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(1, what);
  }

  void e2e(const std::string& name, double value) { e2e_[name] = value; }
  void layer(const std::string& name, double value) { layer_[name] = value; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return problems_.empty(); }
  const std::vector<std::string>& problems() const { return problems_; }
  const std::map<std::string, double>& e2e() const { return e2e_; }
  const std::map<std::string, double>& layer() const { return layer_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_;
};

// One entry point per workload family.
void run_paper_suite(const Config& cfg, Result& out);
void run_fleet(const Config& cfg, Result& out);
void run_plan(const Config& cfg, Result& out);
void run_runtime_storm(const Config& cfg, Result& out);

}  // namespace perfbench
