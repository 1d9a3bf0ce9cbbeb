// Library-independent helpers of the benchmark: percentile support, the
// saturation-knee finder, backlog-growth detection and span self time.
// Header-only so tests/selftest.cpp checks them without the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// ---- percentiles -----------------------------------------------------------

/// A percentile is reported only when at least this many samples lie
/// beyond it: fewer and the value is one or two outliers, not a tail.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Samples strictly above the nearest-rank p-th percentile of `n` samples
/// (p in [0, 100]).
inline std::size_t samples_beyond(double p, std::size_t n) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::min(std::max<std::size_t>(rank, 1), n);
}

/// True when the p-th percentile of `n` samples has enough support.
inline bool percentile_supported(double p, std::size_t n) {
  return samples_beyond(p, n) >= kMinSamplesBeyond;
}

/// Nearest-rank percentile of an ascending-sorted sample vector.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size()) - 1e-9));
  rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

/// A latency distribution as the benchmark reports it.
struct Distribution {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
  /// The highest of {99, 95, 90, 50} with enough support (0 when even the
  /// median has fewer than kMinSamplesBeyond samples beyond it).
  double top_percentile = 0.0;
  double top_value = 0.0;
};

/// Summarises `samples` (consumed: sorted in place).
inline Distribution summarize(std::vector<double> samples) {
  Distribution d;
  d.n = samples.size();
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.p50 = percentile_sorted(samples, 50.0);
  d.p99 = percentile_sorted(samples, 99.0);
  d.p99_supported = percentile_supported(99.0, d.n);
  for (const double p : {99.0, 95.0, 90.0, 50.0}) {
    if (percentile_supported(p, d.n)) {
      d.top_percentile = p;
      d.top_value = percentile_sorted(samples, p);
      break;
    }
  }
  return d;
}

/// The quiet quarter of a segmented closed-loop run (common.hpp explains
/// why runs are segmented): the samples of the quarter of the segments
/// (rounded up) with the lowest medians, pooled. `segments` lists which
/// segments were pooled.
struct QuietQuarter {
  Distribution pooled;
  std::vector<std::size_t> segments;
};

inline QuietQuarter quiet_quarter(
    const std::vector<std::vector<double>>& segments) {
  std::vector<std::pair<double, std::size_t>> medians;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].empty()) continue;
    medians.emplace_back(summarize(segments[i]).p50, i);
  }
  std::sort(medians.begin(), medians.end());
  QuietQuarter quiet;
  std::vector<double> pooled;
  for (std::size_t k = 0; k < (medians.size() + 3) / 4; ++k) {
    const std::size_t i = medians[k].second;
    quiet.segments.push_back(i);
    pooled.insert(pooled.end(), segments[i].begin(), segments[i].end());
  }
  quiet.pooled = summarize(std::move(pooled));
  return quiet;
}

// ---- rate ladder -----------------------------------------------------------

/// One rung of an open-loop rate ladder, as measured.
struct Rung {
  double offered_per_s = 0.0;     ///< Measured offered rate.
  double p99_us = 0.0;            ///< Message latency p99 (due -> consumer).
  bool p99_supported = false;     ///< Enough samples behind p99_us.
  std::uint64_t lost = 0;         ///< Offered but never delivered.
  double lossy_share = 0.0;       ///< Share of windows that lost messages.
  bool backlog_growing = false;   ///< Queue depth rose over the rung.
  double lateness_p99_us = 0.0;   ///< How late the generator ran.
};

enum class RungVerdict { Pass, Fail, Invalid };

// Limits a rung must meet to count as sustained.

/// Message latency p99 limit. Latency runs from the due time, so it
/// includes the release lateness of the sleeping executive and the wait
/// of the 40-message burst all four producers release at each grid
/// instant; below the knee p99 sits at 0.85-1.0 ms on a 4-core host and
/// past it at 1.4 ms and up. A 1 ms limit would sit inside the noise of
/// the sub-knee rungs, so the limit is 1.25 ms.
inline constexpr double kP99LimitUs = 1250.0;
/// The limit also allows p99 to grow to this multiple of the lowest
/// rung's p99. A host whose neighbours delay every thread wake-up raises
/// p99 at every rate (on a shared 4-core host, p99 at 100k msg/s stood at
/// 1.6-2.0 ms for minutes at a time instead of 0.87 ms); the knee is where
/// load, not the host, raises it.
inline constexpr double kP99Growth = 1.5;
/// Generator lateness p99 limit: beyond it the generator, not the system,
/// missed the schedule.
inline constexpr double kLatenessLimitUs = 1000.0;
/// Loss is sustained when more than this share of a rung's windows lose
/// messages. A rate past the knee loses in nearly every window; a host
/// stall that starves the receiving node for ~10 ms overflows the route
/// queues in the one or two windows it falls in.
inline constexpr double kLossyShareLimit = 0.25;

/// Invalid: the generator itself fell behind its schedule, so the rung
/// says nothing about the system. Fail: a latency, loss or backlog limit
/// was missed (an unsupported p99 fails too: the limit is unproven).
inline RungVerdict judge_rung(const Rung& rung, double p99_limit_us) {
  if (rung.lateness_p99_us > kLatenessLimitUs) {
    return RungVerdict::Invalid;
  }
  if (!rung.p99_supported || rung.p99_us > p99_limit_us ||
      rung.lossy_share > kLossyShareLimit || rung.backlog_growing) {
    return RungVerdict::Fail;
  }
  return RungVerdict::Pass;
}

/// The latency limit of a ladder's rungs: kP99LimitUs, or kP99Growth times
/// the lowest rung's p99 when that is higher.
inline double ladder_p99_limit_us(const std::vector<Rung>& rungs) {
  if (rungs.empty() || !rungs.front().p99_supported) return kP99LimitUs;
  return std::max(kP99LimitUs, kP99Growth * rungs.front().p99_us);
}

/// The knee of a ladder whose rungs ascend in rate: the highest rate the
/// system sustains within the limits. Rungs count from the bottom up to
/// the first one that fails; an invalid rung is no result either way and
/// is skipped. A pass above a failure does not raise the knee (a limit met
/// again at a higher rate is noise, not capacity). When that first failure
/// is the latency limit alone, the knee is interpolated linearly between
/// the last passing rung and it, at the rate where p99 reaches the limit,
/// so the figure moves smoothly with the latency curve instead of jumping
/// between rungs. `index` is the last passing rung, -1 when none passed
/// before the first failure (rate 0).
struct Knee {
  int index = -1;
  double rate = 0.0;
};

inline Knee find_knee(const std::vector<Rung>& rungs) {
  Knee knee;
  const double limit = ladder_p99_limit_us(rungs);
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const RungVerdict verdict = judge_rung(rungs[i], limit);
    if (verdict == RungVerdict::Invalid) continue;
    if (verdict == RungVerdict::Pass) {
      knee.index = static_cast<int>(i);
      knee.rate = rungs[i].offered_per_s;
      continue;
    }
    if (knee.index < 0) return knee;
    const Rung& pass = rungs[static_cast<std::size_t>(knee.index)];
    const Rung& miss = rungs[i];
    const bool latency_only =
        miss.p99_supported && miss.lossy_share <= kLossyShareLimit &&
        !miss.backlog_growing && miss.p99_us > pass.p99_us;
    if (latency_only) {
      const double t = (limit - pass.p99_us) /
                       (miss.p99_us - pass.p99_us);
      knee.rate = pass.offered_per_s +
                  t * (miss.offered_per_s - pass.offered_per_s);
    }
    return knee;
  }
  return knee;
}

/// True when a queue-depth series sampled over one rung grew: the median
/// of its last quarter exceeds the median of its first quarter by more
/// than `tolerance` messages. Medians, because a host stall piles up a
/// short-lived backlog that a sustained rate drains again; only a rate the
/// system cannot sustain keeps the queues deeper. Fewer than 8 samples
/// cannot show a trend.
inline bool backlog_growing(const std::vector<double>& depth,
                            double tolerance) {
  if (depth.size() < 8) return false;
  const std::size_t q = depth.size() / 4;
  std::vector<double> head(depth.begin(), depth.begin() + q);
  std::vector<double> tail(depth.end() - q, depth.end());
  std::sort(head.begin(), head.end());
  std::sort(tail.begin(), tail.end());
  return tail[(q - 1) / 2] - head[(q - 1) / 2] > tolerance;
}

// ---- spans -----------------------------------------------------------------

/// One recorded span. `uid` is unique per span; `parent` is the uid of the
/// span that caused it (0 for a root); spans of one message or operation
/// share `id`.
struct Span {
  std::uint16_t name = 0;
  std::uint64_t id = 0;
  std::uint64_t uid = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Length of the union of `intervals` clipped to [lo, hi].
inline std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (auto [begin, end] : intervals) {
    begin = std::max(begin, cursor);
    end = std::min(end, hi);
    if (end <= begin) continue;
    covered += end - begin;
    cursor = end;
  }
  return covered;
}

/// Self time of every span, in input order: its duration minus the part
/// of its interval that its direct children cover (children may overlap
/// each other or stick out of the parent; only their union inside the
/// parent counts).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::pair<std::uint64_t, std::size_t>> by_uid;
  by_uid.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_uid.emplace_back(spans[i].uid, i);
  }
  std::sort(by_uid.begin(), by_uid.end());
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = std::lower_bound(
        by_uid.begin(), by_uid.end(),
        std::make_pair(s.parent, std::size_t{0}));
    if (it == by_uid.end() || it->first != s.parent) continue;
    children[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = (s.end_ns - s.start_ns) -
              covered_ns(std::move(children[i]), s.start_ns, s.end_ns);
  }
  return self;
}

}  // namespace perfbench
