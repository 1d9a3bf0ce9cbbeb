// Self-test of the benchmark's own helpers (src/helpers.hpp): the
// percentile-support rule, the knee finder and backlog detector, and span
// self-time arithmetic. Exits non-zero on the first failed check.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "helpers.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "selftest line %d: FAILED %s\n", line, what);
  ++failures;
}
#define CHECK(expr) check((expr), #expr, __LINE__)

using namespace perfbench;

void percentile_support() {
  CHECK(samples_beyond(99.0, 1000) == 10);
  CHECK(percentile_supported(99.0, 1000));
  CHECK(!percentile_supported(99.0, 999));
  CHECK(!percentile_supported(99.0, 39));
  CHECK(percentile_supported(50.0, 20));
  CHECK(!percentile_supported(50.0, 19));
  CHECK(samples_beyond(99.0, 0) == 0);

  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  const Distribution d = summarize(ramp);
  CHECK(d.n == 1000);
  CHECK(d.p50 == 500.0);
  CHECK(d.p99 == 990.0);
  CHECK(d.p99_supported);
  CHECK(d.top_percentile == 99.0);

  // 200 samples support p95 (10 beyond) but not p99 (2 beyond).
  const Distribution small = summarize(
      std::vector<double>(ramp.begin(), ramp.begin() + 200));
  CHECK(!small.p99_supported);
  CHECK(small.top_percentile == 95.0);
  CHECK(small.top_value == 190.0);
  CHECK(summarize({}).top_percentile == 0.0);
}

void quiet() {
  // Eight segments; six ran slow (a busy neighbour). The quiet quarter
  // pools the two fast ones, whichever order they ran in.
  std::vector<std::vector<double>> segments(8);
  for (int i = 1; i <= 500; ++i) {
    for (int s = 0; s < 8; ++s) segments[s].push_back((2.0 + s) * i);
    segments[1][i - 1] = i;
    segments[5][i - 1] = i + 0.5;
  }
  const QuietQuarter q = quiet_quarter(segments);
  CHECK(q.segments.size() == 2);
  CHECK(q.segments[0] == 1 && q.segments[1] == 5);
  CHECK(q.pooled.n == 1000);
  CHECK(q.pooled.p99_supported);
  CHECK(q.pooled.p99 == 495.5);
  // Counts round up; empty segments are skipped.
  segments.push_back({});
  segments.push_back({0.1});
  CHECK(quiet_quarter(segments).segments.size() == 3);
  CHECK(quiet_quarter({}).pooled.n == 0);
}

Rung rung(double rate, double p99, double lossy_share = 0.0,
          bool growing = false, double lateness = 10.0) {
  Rung r;
  r.offered_per_s = rate;
  r.p99_us = p99;
  r.p99_supported = true;
  r.lossy_share = lossy_share;
  r.backlog_growing = growing;
  r.lateness_p99_us = lateness;
  return r;
}

void knee_finder() {
  // Monotone: latency rises with load; the knee lies where p99 crosses
  // the 1.25 ms limit, interpolated between the last passing and first
  // missing rung.
  std::vector<Rung> monotone = {rung(100e3, 650), rung(200e3, 700),
                                rung(300e3, 1000), rung(400e3, 1500),
                                rung(500e3, 5000)};
  Knee k = find_knee(monotone);
  CHECK(k.index == 2);
  CHECK(std::fabs(k.rate - 350e3) < 1e-6);

  // Every rung passes: the knee is the top rung's rate.
  std::vector<Rung> all_pass = {rung(100e3, 650), rung(200e3, 700)};
  k = find_knee(all_pass);
  CHECK(k.index == 1);
  CHECK(k.rate == 200e3);

  // The limit is 1.25 ms while the lowest rung's p99 stays under 2/3 of
  // it: 1.2 ms passes, 1.3 ms fails.
  CHECK(ladder_p99_limit_us(monotone) == kP99LimitUs);
  CHECK(judge_rung(rung(100e3, 1200), kP99LimitUs) == RungVerdict::Pass);
  CHECK(judge_rung(rung(100e3, 1300), kP99LimitUs) == RungVerdict::Fail);

  // A host that slows every rung: the lowest rung's p99 of 1.6 ms sets
  // the limit at 2.4 ms, and the knee lies where load raises p99 to it.
  std::vector<Rung> slow_host = {rung(100e3, 1600), rung(300e3, 2000),
                                 rung(500e3, 3200)};
  CHECK(std::fabs(ladder_p99_limit_us(slow_host) - 2400.0) < 1e-9);
  k = find_knee(slow_host);
  CHECK(k.index == 1);
  CHECK(std::fabs(k.rate - 300e3 - 200e3 / 3.0) < 1e-6);

  // Non-monotone: a rung that misses caps the knee even though a higher
  // rung happens to meet the limit again.
  std::vector<Rung> bumpy = {rung(100e3, 650), rung(200e3, 1450),
                             rung(300e3, 800), rung(400e3, 1700)};
  k = find_knee(bumpy);
  CHECK(k.index == 0);
  CHECK(std::fabs(k.rate - 175e3) < 1e-6);

  // Loss in a few windows (a stall) does not fail a rung; sustained loss
  // or a growing backlog does, whatever the latency, and the knee then
  // stays on the last passing rung (nothing to interpolate).
  CHECK(judge_rung(rung(100e3, 600, 0.2), kP99LimitUs) == RungVerdict::Pass);
  std::vector<Rung> lossy = {rung(100e3, 600), rung(200e3, 1600, 0.5)};
  k = find_knee(lossy);
  CHECK(k.index == 0);
  CHECK(k.rate == 100e3);
  std::vector<Rung> backlog = {rung(100e3, 600),
                               rung(200e3, 600, 0.0, true)};
  k = find_knee(backlog);
  CHECK(k.index == 0);
  CHECK(k.rate == 100e3);

  // A late generator makes the rung invalid: no result, skipped.
  Rung late = rung(200e3, 1500, 0.0, false, 1500.0);
  CHECK(judge_rung(late, kP99LimitUs) == RungVerdict::Invalid);
  std::vector<Rung> invalid = {rung(100e3, 600), late, rung(300e3, 600),
                               rung(400e3, 1600, 0.5)};
  k = find_knee(invalid);
  CHECK(k.index == 2);
  CHECK(k.rate == 300e3);
  CHECK(find_knee({late}).index == -1);

  // An unsupported p99 proves nothing.
  Rung thin = rung(100e3, 10);
  thin.p99_supported = false;
  CHECK(judge_rung(thin, kP99LimitUs) == RungVerdict::Fail);
  CHECK(find_knee({thin}).index == -1);
  CHECK(find_knee({thin}).rate == 0.0);
  CHECK(find_knee({}).index == -1);

  // Backlog growth: flat, noisy-flat, rising, and a stall spike at the
  // end of an otherwise flat series.
  CHECK(!backlog_growing(std::vector<double>(40, 12.0), 32.0));
  std::vector<double> noisy;
  for (int i = 0; i < 40; ++i) noisy.push_back(i % 2 ? 40.0 : 0.0);
  CHECK(!backlog_growing(noisy, 32.0));
  std::vector<double> rising;
  for (int i = 0; i < 40; ++i) rising.push_back(10.0 * i);
  CHECK(backlog_growing(rising, 32.0));
  std::vector<double> spike(40, 12.0);
  for (int i = 35; i < 39; ++i) spike[i] = 3000.0;
  CHECK(!backlog_growing(spike, 32.0));
  CHECK(!backlog_growing({0, 1000}, 32.0));
}

Span span(std::uint64_t uid, std::uint64_t parent, std::int64_t start,
          std::int64_t end) {
  Span s;
  s.uid = uid;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void self_time() {
  // Nested: root [0,100) has child [10,40) which has grandchild [20,30).
  // Only direct children count against a span.
  std::vector<Span> nested = {span(1, 0, 0, 100), span(2, 1, 10, 40),
                              span(3, 2, 20, 30)};
  std::vector<std::int64_t> self = self_times(nested);
  CHECK(self[0] == 70);
  CHECK(self[1] == 20);
  CHECK(self[2] == 10);

  // Overlapping children [10,50) and [30,70): the union (60) counts once.
  std::vector<Span> overlap = {span(1, 0, 0, 100), span(2, 1, 10, 50),
                               span(3, 1, 30, 70)};
  self = self_times(overlap);
  CHECK(self[0] == 40);

  // A child sticking out of its parent is clipped; a disjoint one after
  // it adds nothing; input order does not matter.
  std::vector<Span> clipped = {span(3, 1, 90, 130), span(1, 0, 0, 100),
                               span(4, 1, 150, 160), span(2, 1, -20, 10)};
  self = self_times(clipped);
  CHECK(self[1] == 80);
  CHECK(self[0] == 40);

  // Nested-and-contained siblings: [10,60) contains [20,30); union is 50.
  std::vector<Span> contained = {span(1, 0, 0, 100), span(2, 1, 10, 60),
                                 span(3, 1, 20, 30)};
  CHECK(self_times(contained)[0] == 50);

  // A parent uid that was never recorded leaves the span a root.
  std::vector<Span> orphan = {span(5, 99, 0, 10)};
  CHECK(self_times(orphan)[0] == 10);

  CHECK(covered_ns({{0, 10}, {5, 15}, {20, 25}}, 0, 100) == 20);
  CHECK(covered_ns({{0, 10}}, 5, 8) == 3);
}

}  // namespace

int main() {
  percentile_support();
  quiet();
  knee_finder();
  self_time();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
