// prodline: the paper's production line (§2.2, Fig. 4) assembled in SOLEIL
// mode and driven as a closed loop by one caller — release + pump, back to
// back — with the hand-written OO baseline running the same transactions
// interleaved, as in the Fig. 7 harness. The soleil, membrane, comm and
// monitor layers do nearly all of the work; dist does none.
//
// One transaction is shorter than the clock can time alone, so each
// observation times a fixed batch and reports the per-transaction mean.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adl/loader.hpp"
#include "baseline/oo_production_line.hpp"
#include "common.hpp"
#include "scenario/production_scenario.hpp"
#include "soleil/application.hpp"
#include "trace.hpp"
#include "validate/validator.hpp"

namespace perfbench {

namespace {

using namespace rtcf;

constexpr int kBatch = 64;
constexpr int kRoundObservations = 50;
/// Set-up repetitions at the start of each segment (common.hpp).
constexpr int kSetupsPerSegment = 7;
/// Time segments (common.hpp).
constexpr int kSegments = 16;
/// Traced run: every kTraceEvery-th SOLEIL observation records spans, up
/// to kTraceCap transactions, so span memory stays bounded.
constexpr int kTraceEvery = 16;
constexpr std::size_t kTraceCap = 200000;

/// Sample slots per series: 20 s of observations on a host twice as fast
/// as the 4-core reference (~930k there).
constexpr std::size_t kSampleCapacity = 2'000'000;

/// Fixed sample storage, written through once at construction so its pages
/// are resident before timing starts.
class SampleArena {
 public:
  explicit SampleArena(std::size_t capacity) : data_(capacity, 0.0f) {}
  void add(double x) {
    if (used_ == data_.size()) {
      ++overflow_;
      return;
    }
    data_[used_++] = static_cast<float>(x);
  }
  std::size_t size() const noexcept { return used_; }
  std::uint64_t overflow() const noexcept { return overflow_; }
  std::vector<double> slice(std::size_t from, std::size_t to) const {
    return std::vector<double>(data_.begin() + static_cast<long>(from),
                               data_.begin() + static_cast<long>(to));
  }

 private:
  std::vector<float> data_;
  std::size_t used_ = 0;
  std::uint64_t overflow_ = 0;
};

/// What set-up builds: the architecture loaded from the Fig. 4 ADL (the
/// same architecture scenario::make_production_architecture() declares),
/// validated and assembled, plus the OO baseline.
struct Line {
  std::unique_ptr<model::Architecture> arch;
  std::unique_ptr<soleil::Application> app;
  std::function<void()> release;
  std::unique_ptr<baseline::OoApplication> oo;
};

Line build_line() {
  Line line;
  line.arch = std::make_unique<model::Architecture>(
      adl::load_architecture(scenario::production_adl()));
  const validate::Report report = validate::validate(*line.arch);
  if (!report.ok()) {
    throw std::runtime_error("production ADL fails validation:\n" +
                             report.to_string());
  }
  line.app = soleil::build_application(*line.arch, soleil::Mode::Soleil);
  line.app->start();
  line.release = line.app->release_fn("ProductionLine");
  line.oo = std::make_unique<baseline::OoApplication>();
  return line;
}

}  // namespace

Result run_prodline(const RunConfig& config) {
  Result result;
  Line line = build_line();
  soleil::Application& app = *line.app;
  baseline::OoApplication& oo = *line.oo;

  // The seed shifts where in the measurement sequence timing starts, so
  // seeds see different anomaly episodes (~5 % of measurements).
  Rng rng(config.seed);
  const auto offset = static_cast<std::size_t>(rng.between(1000, 200000));
  for (std::size_t i = 0; i < offset; ++i) {
    line.release();
    app.pump();
    oo.iterate();
  }

  auto& clock = rtsj::SteadyClock::instance();
  const std::uint64_t activations0 =
      app.activation_manager().activation_count();
  // Per-observation samples go to storage sized and touched up front, so
  // resident memory does not depend on how many observations a run makes
  // (that would show in rss_peak_mb).
  SampleArena soleil_us(kSampleCapacity), oo_us(kSampleCapacity);
  // Per segment: where its samples start, and its SOLEIL tx and busy time.
  std::vector<std::size_t> soleil_from, oo_from;
  std::vector<std::uint64_t> seg_tx;
  std::vector<double> seg_busy_s;
  std::vector<std::vector<double>> traced_us(kSegments);
  std::vector<std::vector<double>> setups(kSegments);
  std::uint64_t soleil_tx = 0;
  std::uint64_t oo_tx = 0;
  std::size_t traced_tx = 0;
  std::uint64_t observation = 0;
  trace::set_enabled(config.trace);
  const double start = now_s();
  const double segment_s = config.seconds / kSegments;
  for (double now = start; now < start + config.seconds; now = now_s()) {
    const int seg =
        std::min(kSegments - 1, static_cast<int>((now - start) / segment_s));
    if (seg == static_cast<int>(seg_tx.size())) {
      for (int i = 0; i < kSetupsPerSegment; ++i) {
        const double t0 = now_s();
        const Line repeated = build_line();
        setups[seg].push_back(now_s() - t0);
      }
      soleil_from.push_back(soleil_us.size());
      oo_from.push_back(oo_us.size());
      seg_tx.push_back(0);
      seg_busy_s.push_back(0.0);
    }
    for (int obs = 0; obs < kRoundObservations; ++obs, ++observation) {
      const bool traced = config.trace && observation % kTraceEvery == 0 &&
                          traced_tx < kTraceCap;
      const auto begin = clock.now();
      if (traced) {
        for (int k = 0; k < kBatch; ++k) {
          const std::uint64_t tx = soleil_tx + static_cast<std::uint64_t>(k);
          const std::uint64_t uid = trace::reserve_uid();
          const std::int64_t t0 = trace::now_ns();
          line.release();
          const std::int64_t t1 = trace::now_ns();
          app.pump();
          const std::int64_t t2 = trace::now_ns();
          trace::record(trace::kRelease, tx, uid, t0, t1);
          trace::record(trace::kPump, tx, uid, t1, t2);
          trace::record_with_uid(uid, trace::kTx, tx, 0, t0, t2);
        }
        traced_tx += kBatch;
      } else {
        for (int k = 0; k < kBatch; ++k) {
          line.release();
          app.pump();
        }
      }
      const auto end = clock.now();
      const double per_tx = (end - begin).to_micros() / kBatch;
      if (traced) {
        traced_us[seg].push_back(per_tx);
      } else {
        soleil_us.add(per_tx);
      }
      seg_busy_s[seg] += (end - begin).to_micros() * 1e-6;
      seg_tx[seg] += kBatch;
      soleil_tx += kBatch;
    }
    for (int obs = 0; obs < kRoundObservations; ++obs) {
      const auto begin = clock.now();
      for (int k = 0; k < kBatch; ++k) oo.iterate();
      const auto end = clock.now();
      oo_us.add((end - begin).to_micros() / kBatch);
      oo_tx += kBatch;
    }
  }
  trace::set_enabled(false);
  // Before the analysis below allocates: rss_peak_mb is the workload's.
  const double rss_mb = rss_peak_mb();

  // Output check: SOLEIL and OO ran the same sequence range, so every
  // functional counter must agree — and match the transactions issued.
  result.attempted = soleil_tx;
  const scenario::ScenarioCounters soleil_counters =
      scenario::collect_counters(app);
  const scenario::ScenarioCounters oo_counters = oo.counters();
  if (soleil_counters != oo_counters) {
    result.fail_check("SOLEIL counters differ from the OO baseline");
  }
  const std::uint64_t expected = offset + soleil_tx;
  if (soleil_counters.produced != expected ||
      soleil_counters.processed != expected ||
      soleil_counters.audit_records != expected) {
    result.fail_check("SOLEIL lost or duplicated transactions");
  }
  if (oo_tx != soleil_tx) result.fail_check("OO ran a different count");

  // The quiet quarter of the segments (common.hpp); OO pooled over the same
  // segments.
  soleil_from.push_back(soleil_us.size());
  oo_from.push_back(oo_us.size());
  std::vector<std::vector<double>> soleil_segments;
  for (std::size_t i = 0; i + 1 < soleil_from.size(); ++i) {
    soleil_segments.push_back(
        soleil_us.slice(soleil_from[i], soleil_from[i + 1]));
  }
  const QuietQuarter quiet = quiet_quarter(soleil_segments);
  const Distribution& tx = quiet.pooled;
  std::vector<double> oo_quiet;
  std::uint64_t quiet_tx = 0;
  double quiet_busy_s = 0.0;
  for (const std::size_t i : quiet.segments) {
    const std::vector<double> oo = oo_us.slice(oo_from[i], oo_from[i + 1]);
    oo_quiet.insert(oo_quiet.end(), oo.begin(), oo.end());
    quiet_tx += seg_tx[i];
    quiet_busy_s += seg_busy_s[i];
  }
  const Distribution oo_dist = summarize(std::move(oo_quiet));
  const double tx_per_s = ratio(quiet_tx, quiet_busy_s);
  if (soleil_us.overflow() + oo_us.overflow() != 0) {
    result.note("sample storage full: %llu observations not recorded",
                static_cast<unsigned long long>(soleil_us.overflow() +
                                                oo_us.overflow()));
  }
  const std::vector<double> quiet_setups =
      pool_segments(setups, quiet.segments);
  const double setup_s = median_of(quiet_setups);
  note_setups(result, quiet_setups);
  result.note("sequence offset %zu, batch %d, %llu SOLEIL + %llu OO tx",
              offset, kBatch, static_cast<unsigned long long>(soleil_tx),
              static_cast<unsigned long long>(oo_tx));
  for (const auto& segment : soleil_segments) {
    note_distribution(result, "tx_us (SOLEIL, segment)", summarize(segment),
                      "us");
  }
  note_distribution(result, "tx_us (SOLEIL, quiet quarter)", tx, "us");
  note_distribution(result, "tx_us (OO, same segments)", oo_dist, "us");
  result.named("setup_s", "s", setup_s);
  result.named("rss_peak_mb", "MB", rss_mb);
  result.named("tx_p50_us", "us", tx.p50);
  result.named("tx_p99_us", "us", tx.p99);
  result.named("tx_per_s", "1/s", tx_per_s);
  result.note("counters: produced=%llu anomalies=%llu console=%llu",
              static_cast<unsigned long long>(soleil_counters.produced),
              static_cast<unsigned long long>(soleil_counters.anomalies),
              static_cast<unsigned long long>(soleil_counters.console_reports));
  if (!config.trace && !tx.p99_supported) {
    result.fail_check("too few observations for tx p99");
  }

  result.add_e2e("setup_s", setup_s);
  result.add_e2e("rss_peak_mb", rss_mb);
  result.add_e2e("op_p50_us", tx.p50);
  result.add_e2e("op_p99_us", tx.p99);
  result.add_e2e("op_per_s", tx_per_s);
  result.add_e2e("op_ok_ratio",
                 static_cast<double>(soleil_counters.produced - offset) /
                     static_cast<double>(soleil_tx));

  if (config.trace) {
    const std::vector<Span> spans = trace::collect();
    const auto totals = trace::totals_by_name(spans);
    // Traced and untraced batches of the segments that traced (the trace
    // cap fills within the first seconds of the run).
    std::vector<std::size_t> traced_segments;
    for (std::size_t i = 0; i < traced_us.size(); ++i) {
      if (!traced_us[i].empty()) traced_segments.push_back(i);
    }
    const Distribution traced =
        summarize(pool_segments(traced_us, traced_segments));
    const Distribution untraced =
        summarize(pool_segments(soleil_segments, traced_segments));
    const double release_ns =
        summarize(totals[trace::kRelease].durations_us).p50 * 1000.0;
    const double pump_ns =
        summarize(totals[trace::kPump].durations_us).p50 * 1000.0;
    const double overhead_pct =
        (traced.p50 - untraced.p50) / untraced.p50 * 100.0;
    const double membrane_pct = (tx.p50 - oo_dist.p50) / oo_dist.p50 * 100.0;
    const double activations =
        static_cast<double>(app.activation_manager().activation_count() -
                            activations0) /
        static_cast<double>(soleil_tx);
    const double tx_self_ns =
        ratio(totals[trace::kTx].self_ns, totals[trace::kTx].count);
    result.add_layer("soleil.release_ns", release_ns);
    result.add_layer("soleil.pump_ns", pump_ns);
    result.add_layer("soleil.activations_per_tx", activations);
    result.add_layer("membrane.overhead_vs_oo_pct", membrane_pct);
    result.add_layer("membrane.infra_bytes",
                     static_cast<double>(app.infrastructure_bytes()));
    result.add_layer("trace.overhead_pct", overhead_pct);
    result.note("traced: %zu spans, %llu traced tx; tx self (untimed glue) "
                "%.1f ns/tx",
                spans.size(),
                static_cast<unsigned long long>(totals[trace::kTx].count),
                tx_self_ns);
    save_trace(config, spans, result);
  }
  return result;
}

}  // namespace perfbench
