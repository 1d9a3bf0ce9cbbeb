// bridge-stream: two NodeRuntimes in one process linked over TCP on the
// loopback interface; four bridged producer -> sink bindings run from node
// a to node b. Producers are open loop on the launcher's period grid with
// seeded bursts. Latency is measured at a fixed 100k msg/s; a rate ladder
// above it finds the saturation knee. The dist data plane, comm channels
// and the runtime boundary hook do most of the work; reconfig, validate
// and tenant do none.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "dist/protocol.hpp"
#include "stream.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace rtcf;
using stream::kPeriodNs;
using stream::kProducers;

constexpr double kFixedRate = 100e3;
/// Ladder rates above the fixed step (msg/s, all producers together),
/// finer around the knee.
constexpr double kLadder[] = {300e3, 500e3, 600e3, 700e3, 800e3, 900e3, 1000e3};
/// Share of the run spent at the fixed rate (the rest is the ladder).
constexpr double kFixedShare = 0.4;
/// Set-up repetitions before the run and again after it; the quieter of
/// the two groups is reported (common.hpp: set-up is CPU-bound work, and
/// the two groups lie 20 s apart).
constexpr int kSetupsPerGroup = 11;
/// Binding buffers hold a burst of the top rung and the injections of a
/// boundary after a short stall.
constexpr std::size_t kBufferSize = 1024;
/// Releases per latency window (100 ms). A rung's latency is that of its
/// quiet quarter of windows, pooled (helpers.hpp, quiet_quarter; common.hpp
/// says why).
constexpr std::size_t kWindowReleases = 250;
/// A rung's backlog "grows" when queue + inbox depth rises by more than one
/// route credit window (the data plane's default, 256) between the first
/// and last quarter of the rung.
constexpr double kBacklogTolerance = 256.0;

validate::NodeMap make_map() {
  validate::NodeMap map;
  map.nodes = {"a", "b"};
  for (int p = 0; p < kProducers; ++p) {
    map.assignment[stream::producer_name(p)] = "a";
    map.assignment[stream::sink_name(p)] = "b";
  }
  return map;
}

struct DepthSample {
  std::int64_t t_ns;
  double depth;  ///< a's route queues + b's inbox.
  double inbox;  ///< b's inbox alone.
};

}  // namespace

Result run_bridge_stream(const RunConfig& config) {
  Result result;
  // The schedule: a fixed-rate step, then (untraced runs) the ladder.
  const double fixed_s = config.trace ? config.seconds
                                      : config.seconds * kFixedShare;
  std::vector<stream::Step> steps;
  std::size_t release = 0;
  const auto add_step = [&](double rate, double seconds) {
    const auto n = static_cast<std::size_t>(seconds * 1e9 / kPeriodNs);
    steps.push_back({rate, release, release + n});
    release += n;
  };
  add_step(kFixedRate, fixed_s);
  if (!config.trace) {
    const double rung_s = config.seconds * (1.0 - kFixedShare) /
                          static_cast<double>(std::size(kLadder));
    for (const double rate : kLadder) add_step(rate, rung_s);
  }
  const double schedule_s = static_cast<double>(release) * kPeriodNs * 1e-9;
  Rng rng(config.seed);
  std::vector<stream::Schedule> schedules = stream::make_schedules(steps, rng);

  const double horizon_s = schedule_s + 0.3;
  std::vector<std::vector<double>> setups(2);  // before and after the run
  const auto set_up = [&](std::vector<double>& times) {
    const double t0 = now_s();
    stream::Cluster built =
        stream::make_cluster(stream::make_arch("S0", {"S0"}, kBufferSize),
                             make_map(), horizon_s);
    times.push_back(now_s() - t0);
    return built;
  };
  stream::Cluster cluster;
  for (int i = 0; i < kSetupsPerGroup; ++i) cluster = set_up(setups[0]);
  stream::reset_state(std::move(schedules));
  stream::state().launcher = &cluster.a->launcher();

  std::vector<DepthSample> depth;
  depth.reserve(static_cast<std::size_t>(horizon_s * 1100));
  // Samples a's route queues and b's inbox every millisecond until the
  // run ends (joined on every path out of this scope, before `depth` dies).
  struct Sampler {
    std::atomic<bool> on{true};
    std::thread thread;
    ~Sampler() {
      on = false;
      if (thread.joinable()) thread.join();
    }
  } sampler;
  trace::set_enabled(false);
  const double started = now_s();
  cluster.b->start();
  cluster.a->start();
  sampler.thread = std::thread([&] {
    while (sampler.on.load(std::memory_order_relaxed)) {
      const double inbox = static_cast<double>(cluster.b->inbox_depth());
      const double queued =
          static_cast<double>(cluster.a->data_plane().stats().queued);
      depth.push_back({trace::now_ns(), queued + inbox, inbox});
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  double traced_from_s = 0.0;
  if (config.trace) {
    // Traced run: the first half untraced, the second half traced, so the
    // difference is the tracing overhead.
    std::this_thread::sleep_until(
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(schedule_s / 2));
    traced_from_s = now_s();
    trace::set_enabled(true);
  }
  cluster.a->join_executive();
  cluster.b->join_executive();
  trace::set_enabled(false);
  sampler.on = false;
  sampler.thread.join();
  const double ran_s = now_s() - started;
  const dist::DataPlaneStats dp_a = cluster.a->data_plane().stats();
  const dist::DataPlaneStats dp_b = cluster.b->data_plane().stats();
  cluster.a->stop();
  cluster.b->stop();
  // Before the analysis below allocates: rss_peak_mb is the workload's.
  const double rss_mb = rss_peak_mb();
  for (int i = 0; i < kSetupsPerGroup; ++i) set_up(setups[1]);

  // ---- output checks ------------------------------------------------------
  const stream::State& st = stream::state();
  for (int p = 0; p < kProducers; ++p) {
    if (st.producers[p].releases < st.schedules[p].bursts.size()) {
      result.fail_check(stream::producer_name(p) +
                        " did not finish its schedule within the horizon");
    }
  }
  stream::check_conservation(stream::node_counters(*cluster.a),
                             stream::node_counters(*cluster.b), result);
  std::uint64_t shed = 0;
  std::uint64_t misses = 0;
  stream::release_counts(shed, misses);

  // ---- per rung -----------------------------------------------------------
  const std::int64_t due0 = st.producers[0].due0_ns;
  std::vector<Rung> rungs;
  std::vector<Distribution> whole;  // pooled over the rung, for the report
  std::vector<Distribution> quiet;  // pooled over its quiet quarter
  std::vector<std::size_t> used;    // windows with an on-time generator
  std::vector<std::size_t> late;
  std::uint64_t fixed_offered = 0;
  std::uint64_t fixed_lost = 0;  // all windows, late generator or not
  for (const stream::Step& step : steps) {
    std::vector<std::vector<double>> windows;
    std::vector<double> lateness;
    std::vector<double> pooled;
    Rung rung;
    std::uint64_t offered = 0;
    std::size_t late_windows = 0;
    std::size_t lossy_windows = 0;
    for (std::size_t w = step.first; w < step.last; w += kWindowReleases) {
      // The first release carries no due time; leave it out.
      const std::size_t lo = std::max<std::size_t>(w, 1);
      const std::size_t hi = std::min(w + kWindowReleases, step.last);
      stream::RangeStats range = stream::range_stats(lo, hi);
      offered += range.offered;
      if (rungs.empty()) fixed_lost += range.lost;
      pooled.insert(pooled.end(), range.latency_us.begin(),
                    range.latency_us.end());
      lateness.push_back(stream::lateness_p99_us(lo, hi));
      // A window in which the generator itself ran late is invalid, like
      // a late rung: it says nothing about the system under test.
      if (lateness.back() > kLatenessLimitUs) {
        ++late_windows;
        continue;
      }
      rung.lost += range.lost;
      lossy_windows += range.lost != 0;
      windows.push_back(std::move(range.latency_us));
    }
    rung.lossy_share = ratio(lossy_windows, windows.size());
    quiet.push_back(quiet_quarter(windows).pooled);
    const std::size_t releases =
        step.last - std::max<std::size_t>(step.first, 1);
    rung.offered_per_s = static_cast<double>(offered) /
                         (static_cast<double>(releases) * kPeriodNs * 1e-9);
    rung.p99_us = quiet.back().p99;
    rung.p99_supported = quiet.back().p99_supported;
    // More than half the windows late <=> the median lateness is over the
    // limit <=> the rung is invalid.
    rung.lateness_p99_us = median_of(lateness);
    used.push_back(windows.size());
    late.push_back(late_windows);
    const std::int64_t from =
        due0 + static_cast<std::int64_t>(step.first) * kPeriodNs;
    const std::int64_t to =
        due0 + static_cast<std::int64_t>(step.last) * kPeriodNs;
    std::vector<double> series;
    for (const DepthSample& s : depth) {
      if (s.t_ns >= from && s.t_ns < to) series.push_back(s.depth);
    }
    rung.backlog_growing = backlog_growing(series, kBacklogTolerance);
    if (rungs.empty()) fixed_offered = offered;
    rungs.push_back(rung);
    whole.push_back(summarize(std::move(pooled)));
  }
  const Knee knee = find_knee(rungs);
  const double p99_limit = ladder_p99_limit_us(rungs);
  const Rung& fixed = rungs.front();
  for (const auto& producer : st.producers) result.attempted += producer.sent;

  static const char* const kVerdict[] = {"pass", "FAIL", "INVALID"};
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const Rung& rung = rungs[r];
    result.note("rung %zu: offered %.0f msg/s, lost %llu (in %.0f %% of "
                "windows), lateness p99 %.1f us (window median), backlog %s "
                "-> %s",
                r, rung.offered_per_s,
                static_cast<unsigned long long>(rung.lost),
                rung.lossy_share * 100.0,
                rung.lateness_p99_us,
                rung.backlog_growing ? "growing" : "flat",
                kVerdict[static_cast<int>(judge_rung(rung, p99_limit))]);
    note_distribution(result, "  msg_us pooled", whole[r], "us");
    result.note("  quiet quarter of %zu windows (%zu more with a late "
                "generator):", used[r], late[r]);
    note_distribution(result, "  msg_us quiet", quiet[r], "us");
  }
  const std::vector<double> quiet_setups =
      pool_segments(setups, quiet_quarter(setups).segments);
  const double setup_s = median_of(quiet_setups);
  note_setups(result, quiet_setups);
  const double loss_ratio =
      ratio(fixed_lost, fixed_offered);
  result.note("knee: last passing rung %d, p99 limit %.1f us", knee.index,
              p99_limit);
  result.named("setup_s", "s", setup_s);
  result.named("rss_peak_mb", "MB", rss_mb);
  result.named("msg_p50_us", "us", quiet[0].p50);
  result.named("msg_p99_us", "us", fixed.p99_us);
  result.named("msg_loss_ratio", "ratio", loss_ratio);
  result.named("knee_msgs_per_s", "1/s", knee.rate);
  result.note("launcher: shed %llu releases, %llu deadline misses",
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(misses));
  if (!config.trace && !fixed.p99_supported) {
    result.fail_check("too few messages for msg p99 at the fixed rate");
  }
  if (!config.trace && knee.index < 0) {
    result.fail_check("the fixed 100k msg/s step misses its limits");
  }

  result.add_e2e("setup_s", setup_s);
  result.add_e2e("rss_peak_mb", rss_mb);
  result.add_e2e("op_p50_us", quiet[0].p50);
  result.add_e2e("op_p99_us", fixed.p99_us);
  result.add_e2e("op_per_s", knee.rate);
  result.add_e2e("op_ok_ratio", 1.0 - loss_ratio);

  if (config.trace) {
    // Split the fixed step at the release where tracing turned on.
    const auto split_release = static_cast<std::size_t>(
        std::max(0.0, (traced_from_s - started) * 1e9 / kPeriodNs));
    const Distribution untraced = summarize(
        stream::range_stats(1, split_release).latency_us);
    const Distribution traced = summarize(
        stream::range_stats(split_release + 1, steps[0].last).latency_us);
    const std::vector<Span> spans = trace::collect();
    const auto totals = trace::totals_by_name(spans);
    const auto mean_us = [&](trace::Name name) {
      const auto& t = totals[name];
      return t.count == 0 ? 0.0
                          : static_cast<double>(t.total_ns) / 1000.0 /
                                static_cast<double>(t.count);
    };
    const double frames = static_cast<double>(cluster.data_a->frames_sent());
    const double msgs = static_cast<double>(dp_a.sent);
    const double recv_calls = static_cast<double>(
        cluster.data_a->receive_calls() + cluster.data_b->receive_calls());
    const double recv_frames = static_cast<double>(
        cluster.data_a->frames_received() + cluster.data_b->frames_received());
    // Per message: one producer release, one frame send, one frame
    // receive, one sink call are timed; the rest of due -> on_message is
    // waiting (or work inside the library that no span covers).
    const double covered_us = mean_us(trace::kProducer) +
                              mean_us(trace::kChannelSend) +
                              mean_us(trace::kChannelRecv) +
                              mean_us(trace::kSink);
    const double latency_mean_us = [&] {
      auto r = stream::range_stats(split_release + 1, steps[0].last);
      double sum = 0.0;
      for (double v : r.latency_us) sum += v;
      return r.latency_us.empty() ? 0.0 : sum / r.latency_us.size();
    }();
    const double wait_share =
        latency_mean_us > 0.0 ? 1.0 - covered_us / latency_mean_us : 0.0;
    std::vector<double> inbox;
    for (const DepthSample& s : depth) inbox.push_back(s.inbox);
    const Distribution inbox_dist = summarize(inbox);
    const double flushes =
        static_cast<double>(dp_a.size_flushes + dp_a.deadline_flushes);

    result.add_layer("monitor.shed_releases", static_cast<double>(shed));
    result.add_layer("monitor.deadline_misses", static_cast<double>(misses));
    result.add_layer("runtime.release_lateness_p99_us",
                     stream::lateness_p99_us(0, steps[0].last));
    result.add_layer("comm.send_us",
                     summarize(totals[trace::kChannelSend].durations_us).p50);
    result.add_layer("comm.frames_per_s", frames / ran_s);
    result.add_layer("comm.bytes_per_frame",
                     static_cast<double>(cluster.data_a->bytes_sent()) /
                         std::max(frames, 1.0));
    result.add_layer("comm.empty_poll_ratio",
                     recv_calls > 0.0 ? 1.0 - recv_frames / recv_calls : 0.0);
    result.add_layer("comm.pool_misses_per_msg",
                     ratio(dp_a.pool_misses + dp_b.pool_misses, msgs));
    result.add_layer("comm.bytes_copied_per_msg",
                     ratio(dp_a.bytes_copied, msgs));
    result.add_layer("dist.msgs_per_frame", ratio(msgs, dp_a.batches));
    result.add_layer("dist.credits_per_msg",
                     static_cast<double>(cluster.data_b->sent_of_type(
                         static_cast<std::uint16_t>(dist::FrameType::Credit))) /
                         msgs);
    result.add_layer("dist.deadline_flush_ratio",
                     ratio(dp_a.deadline_flushes, flushes));
    result.add_layer("dist.wait_share", wait_share);
    result.add_layer("dist.peak_queue_depth",
                     static_cast<double>(dp_a.peak_queue_depth));
    result.add_layer("dist.inbox_depth_p99",
                     inbox_dist.p99_supported ? inbox_dist.p99
                                              : inbox_dist.top_value);
    result.add_layer("dist.overflow_drops",
                     static_cast<double>(dp_a.overflow_drops));
    result.add_layer("trace.overhead_pct",
                     (traced.p50 - untraced.p50) / untraced.p50 * 100.0);
    note_distribution(result, "untraced half msg_us", untraced, "us");
    note_distribution(result, "traced half msg_us", traced, "us");
    result.note("timed per message: producer %.2f + send %.2f + receive %.2f "
                "+ sink %.2f = %.2f us of %.1f us mean latency -> wait share "
                "%.3f",
                mean_us(trace::kProducer), mean_us(trace::kChannelSend),
                mean_us(trace::kChannelRecv), mean_us(trace::kSink), covered_us,
                latency_mean_us, wait_share);
    result.note("reading: msg_p50_us is %s",
                wait_share > 0.5
                    ? "set by waiting on flush/poll cadence, not transport work"
                    : "set by timed transport work, not waiting");
    save_trace(config, spans, result);
  }
  return result;
}

}  // namespace perfbench
