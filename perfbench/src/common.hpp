// What every workload shares: its run settings, its result record, the
// seeded random source, and the process-level measurements.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "trace.hpp"

namespace perfbench {

/// Settings of one run, from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty: nowhere).
  std::string trace_out;
};

/// One named metric value (its unit is fixed by BENCHMARK.json).
struct Metric {
  std::string name;
  double value = 0.0;
};

/// What a workload reports.
struct Result {
  /// False when any output check failed.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Contract metrics (BENCHMARK.json end_to_end) of an untraced run.
  std::vector<Metric> end_to_end;
  /// Contract metrics (BENCHMARK.json per_layer) of a traced run.
  std::vector<Metric> per_layer;
  /// Human-readable report lines, printed before the JSON line.
  std::vector<std::string> report;

  /// Records a failed output check: the run is incorrect and the check
  /// counts as one failed operation.
  void fail_check(const std::string& what);
  void add_e2e(const std::string& name, double value) {
    end_to_end.push_back({name, value});
  }
  void add_layer(const std::string& name, double value) {
    per_layer.push_back({name, value});
  }
  /// Reports one of the workload's own end-to-end figures by name and
  /// unit (tx_p50_us, knee_msgs_per_s, ...), in the report only.
  void named(const char* name, const char* unit, double value) {
    note("metric %s = %.6g %s", name, value, unit);
  }
  /// printf-style report line.
  void note(const char* format, ...) __attribute__((format(printf, 2, 3)));
};

/// SplitMix64: small, seedable, and the same sequence on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t state_;
};

/// Seconds on the steady clock (for set-up and run timing).
double now_s();
/// Peak resident set of this process, MiB.
double rss_peak_mb();
// Every workload splits its timed work into segments (prodline and
// tenant-admit by time, reload-churn by commit count, bridge-stream each
// rate step into 100-ms windows) and reports the pooled quiet quarter of
// them: the quarter with the lowest medians (helpers.hpp, quiet_quarter).
// On a shared host the work runs in regimes up to ~45 % apart that switch
// with the neighbours' load, often for more than half of a 20-s run; a
// whole-run figure lands in whichever regime dominated the run, the quiet
// quarter only when the slow regime held for three quarters of it. Traced
// runs trace the second half of the run. Set-up is CPU-bound work too:
// prodline and tenant-admit repeat theirs at the start of every segment
// and report its median over the same quiet quarter (pool_segments);
// bridge-stream, which cannot build clusters while its stream runs, sets
// up before and after the run and reports the quieter group.

/// The values of the segments listed in `segments`, pooled.
inline std::vector<double> pool_segments(
    const std::vector<std::vector<double>>& by_segment,
    const std::vector<std::size_t>& segments) {
  std::vector<double> pooled;
  for (const std::size_t i : segments) {
    pooled.insert(pooled.end(), by_segment[i].begin(), by_segment[i].end());
  }
  return pooled;
}

/// num / den, or 0 when den is 0 (a layer that did no work).
inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}
/// Runs `fn` as one span and returns its duration in microseconds.
template <typename Fn>
double timed(trace::Name name, std::uint64_t id, Fn&& fn) {
  const std::int64_t t0 = trace::now_ns();
  fn();
  const std::int64_t t1 = trace::now_ns();
  trace::record(name, id, 0, t0, t1);
  return static_cast<double>(t1 - t0) / 1000.0;
}
/// Writes the traced run's spans to config.trace_out (if set).
void save_trace(const RunConfig& config, const std::vector<Span>& spans,
                Result& result);
/// Median of a small vector (copied).
double median_of(std::vector<double> values);
/// Adds "<label>: n=.. p50=.. p99=.." to the report, naming the highest
/// supported percentile when p99 lacks support.
void note_distribution(Result& result, const char* label,
                       const Distribution& d, const char* unit);

/// Adds the distribution of the set-up repetitions (in us) to the report.
void note_setups(Result& result, const std::vector<double>& setups_s);

/// Workload entry points.
Result run_prodline(const RunConfig& config);
Result run_bridge_stream(const RunConfig& config);
Result run_reload_churn(const RunConfig& config);
Result run_tenant_admit(const RunConfig& config);

}  // namespace perfbench
