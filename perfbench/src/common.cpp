#include "common.hpp"

#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double median_of(std::vector<double> values) {
  return summarize(std::move(values)).p50;
}

void save_trace(const RunConfig& config, const std::vector<Span>& spans,
                Result& result) {
  if (!config.trace_out.empty() &&
      !trace::write_csv(config.trace_out, spans)) {
    result.note("cannot write %s", config.trace_out.c_str());
  }
}

void note_setups(Result& result, const std::vector<double>& setups_s) {
  std::vector<double> us;
  for (const double s : setups_s) us.push_back(s * 1e6);
  const Distribution d = summarize(us);
  result.note("setup_us over %zu repetitions: min %.1f p50 %.1f max %.1f",
              d.n, *std::min_element(us.begin(), us.end()), d.p50,
              *std::max_element(us.begin(), us.end()));
}

void note_distribution(Result& result, const char* label,
                       const Distribution& d, const char* unit) {
  if (d.p99_supported) {
    result.note("%s: n=%zu p50=%.3f%s p99=%.3f%s", label, d.n, d.p50, unit,
                d.p99, unit);
  } else if (d.top_percentile > 0.0) {
    result.note("%s: n=%zu p50=%.3f%s p%.0f=%.3f%s (p99 unsupported)", label,
                d.n, d.p50, unit, d.top_percentile, d.top_value, unit);
  } else {
    result.note("%s: n=%zu (too few samples for any percentile)", label, d.n);
  }
}

}  // namespace perfbench
