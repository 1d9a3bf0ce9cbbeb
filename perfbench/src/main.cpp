// The repository benchmark. One workload per invocation:
//
//   perfbench --workload <prodline|bridge-stream|reload-churn|tenant-admit>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// (perfbench/run.py runs all four in turn, one process each, so every
// workload's peak resident set is its own). A workload prints a
// human-readable report, then one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end set, measured with
// tracing off; with --trace 1 they are the per-layer set of a traced run.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every workload reports every one of these (BENCHMARK.json end_to_end).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"rss_peak_mb", "MB"},
    {"op_p50_us", "us"},     {"op_p99_us", "us"},
    {"op_per_s", "1/s"},     {"op_ok_ratio", "ratio"},
};

/// BENCHMARK.json per_layer, each with the end-to-end metric it should
/// move and on which workload. A layer a workload does not exercise reads 0.
struct LayerSpec {
  const char* name;
  const char* unit;
  const char* moves;
};
constexpr LayerSpec kPerLayer[] = {
    {"soleil.release_ns", "ns", "tx_p50_us on prodline"},
    {"soleil.pump_ns", "ns", "tx_p50_us on prodline"},
    {"soleil.activations_per_tx", "count", "tx_p50_us on prodline"},
    {"membrane.overhead_vs_oo_pct", "%", "tx_p50_us on prodline"},
    {"membrane.infra_bytes", "bytes", "rss_peak_mb on prodline"},
    {"monitor.shed_releases", "count", "msg_p99_us on bridge-stream"},
    {"monitor.deadline_misses", "count", "msg_p99_us on bridge-stream"},
    {"runtime.release_lateness_p99_us", "us", "msg_p99_us on bridge-stream"},
    {"comm.send_us", "us", "knee_msgs_per_s on bridge-stream"},
    {"comm.frames_per_s", "1/s", "knee_msgs_per_s on bridge-stream"},
    {"comm.bytes_per_frame", "bytes", "knee_msgs_per_s on bridge-stream"},
    {"comm.empty_poll_ratio", "ratio", "msg_p50_us on bridge-stream"},
    {"comm.pool_misses_per_msg", "ratio", "knee_msgs_per_s on bridge-stream"},
    {"comm.bytes_copied_per_msg", "bytes", "knee_msgs_per_s on bridge-stream"},
    {"dist.msgs_per_frame", "count", "knee_msgs_per_s on bridge-stream"},
    {"dist.credits_per_msg", "ratio", "knee_msgs_per_s on bridge-stream"},
    {"dist.deadline_flush_ratio", "ratio", "msg_p50_us on bridge-stream"},
    {"dist.wait_share", "ratio", "msg_p50_us on bridge-stream"},
    {"dist.peak_queue_depth", "count", "msg_p99_us on bridge-stream"},
    {"dist.inbox_depth_p99", "count", "msg_p99_us on bridge-stream"},
    {"dist.overflow_drops", "count", "msg_loss_ratio on bridge-stream"},
    {"dist.node_commit_p50_us", "us", "commit_p50_us on reload-churn"},
    {"dist.coordinator_self_us", "us", "commit_p50_us on reload-churn"},
    {"dist.slice_us", "us", "commit_p50_us on reload-churn"},
    {"dist.encode_us", "us", "commit_p50_us on reload-churn"},
    {"dist.control_frames_per_commit", "count",
     "commit_p50_us on reload-churn"},
    {"dist.commit_gap_p99_us", "us", "msg_p99_us on reload-churn"},
    {"validate.rules_us", "us",
     "commit_p50_us on reload-churn, admit_p50_us on tenant-admit"},
    {"validate.tenancy_us", "us", "admit_p50_us on tenant-admit"},
    {"reconfig.plan_reload_us", "us",
     "commit_p50_us on reload-churn, admit_p50_us on tenant-admit"},
    {"reconfig.drained_per_commit", "count", "msg_loss_ratio on reload-churn"},
    {"sim.rta_us", "us", "admit_p50_us and admit_p99_us on tenant-admit"},
    {"tenant.compose_us", "us", "admit_p50_us on tenant-admit"},
    {"tenant.admit_self_us", "us", "admit_p50_us on tenant-admit"},
    {"trace.overhead_pct", "%", "(traced minus untraced run, this workload)"},
};

const Metric* find_metric(const std::vector<Metric>& metrics,
                          const char* name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

/// The JSON line of one run. A contract metric the workload did not
/// produce is a benchmark bug for end-to-end metrics (the run is marked
/// incorrect) and "layer not exercised" (0) for per-layer metrics.
/// Must run before the report is printed: it may add failed checks.
std::string json_line(Result& result, bool trace) {
  std::string metrics;
  char buf[160];
  const auto emit = [&](const char* name, const char* unit, double value) {
    if (!std::isfinite(value)) {
      // JSON has no NaN; a non-finite end-to-end figure is a failed check.
      if (!trace) result.fail_check(std::string("non-finite ") + name);
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    std::snprintf(buf, sizeof buf,
                  "\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", name,
                  value, unit);
    metrics += buf;
  };
  if (trace) {
    for (const LayerSpec& spec : kPerLayer) {
      const Metric* m = find_metric(result.per_layer, spec.name);
      emit(spec.name, spec.unit, m == nullptr ? 0.0 : m->value);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const Metric* m = find_metric(result.end_to_end, spec.name);
      if (m == nullptr) {
        result.fail_check(std::string("metric not produced: ") + spec.name);
        continue;
      }
      emit(spec.name, spec.unit, m->value);
    }
  }
  std::snprintf(buf, sizeof buf,
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
  return std::string(buf) + "\"metrics\": {" + metrics + "}}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<prodline|bridge-stream|reload-churn|tenant-admit> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

Result run_one(const RunConfig& config) {
  if (config.workload == "prodline") return run_prodline(config);
  if (config.workload == "bridge-stream") return run_bridge_stream(config);
  if (config.workload == "reload-churn") return run_reload_churn(config);
  return run_tenant_admit(config);
}

}  // namespace

void Result::fail_check(const std::string& what) {
  correct = false;
  ++failed;
  note("CHECK FAILED: %s", what.c_str());
}

void Result::note(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  report.emplace_back(buf);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0.0) || config.seconds > 600.0) {
        return usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("bad --trace");
      }
      config.trace = value[0] == '1';
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("no --workload");
  const std::vector<std::string> known = {"prodline", "bridge-stream",
                                          "reload-churn", "tenant-admit"};
  if (std::find(known.begin(), known.end(), config.workload) == known.end()) {
    return usage("unknown workload");
  }

  Result result;
  trace::clear();
  try {
    result = run_one(config);
  } catch (const std::exception& e) {
    result = Result();
    result.attempted = 1;
    result.fail_check(std::string("workload threw: ") + e.what());
  }
  const std::string json = json_line(result, config.trace);
  std::printf("== %s (seed %llu, %.3g s, trace %d) ==\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const std::string& line : result.report) {
    std::printf("  %s\n", line.c_str());
  }
  if (config.trace) {
    std::printf("  per-layer metrics (value -> the end-to-end metric it "
                "should move):\n");
    for (const LayerSpec& spec : kPerLayer) {
      const Metric* m = find_metric(result.per_layer, spec.name);
      if (m == nullptr) {
        std::printf("    %-34s %14s          -> %s\n", spec.name,
                    "not exercised", spec.moves);
      } else {
        std::printf("    %-34s %14.4f %-7s -> %s\n", spec.name, m->value,
                    spec.unit, spec.moves);
      }
    }
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  // The JSON line carries the verdict; exit 0 whenever it was printed.
  return 0;
}
