// The two-node stream shared by bridge-stream and reload-churn: producer
// components on node "a" bridged to sink components on node "b", the
// seeded open-loop schedule the producers follow, and the arrival ledger
// the sinks fill.
//
// Producers are periodic components released by node a's launcher on its
// drift-free period grid; each release sends a seeded burst. Every message
// is stamped with its *due* time — the grid instant of its release — not
// its send time, so a late release counts against latency. The grid is
// anchored once: at the second release the producer reads the launcher's
// recorded lateness of the first release (same executive thread, so no
// race) and from then on due(k) = due(0) + k * period. Messages of the
// first release carry no due time and are left out of latency figures.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "dist/gateway.hpp"
#include "dist/node_runtime.hpp"
#include "channel.hpp"

namespace perfbench::stream {

/// Producers P0..P<kProducers-1>; their bindings are the routes.
inline constexpr int kProducers = 4;
/// Producer release period.
inline constexpr std::int64_t kPeriodNs = 400'000;

/// One producer's seeded schedule: the burst size of every release.
struct Schedule {
  std::vector<std::uint32_t> bursts;
  /// first_seq[k]: sequence number of the first message of release k
  /// (size releases + 1; the last entry is the total).
  std::vector<std::uint64_t> first_seq;
};

/// One rate step of the schedule: releases [first, last) at `rate`.
struct Step {
  double rate_per_s = 0.0;
  std::size_t first = 0;
  std::size_t last = 0;
};

/// Builds every producer's schedule: for each step, bursts drawn uniformly
/// from [m/2, 3m/2] with m = rate * period / kProducers.
std::vector<Schedule> make_schedules(const std::vector<Step>& steps,
                                     Rng& rng);

/// Memory shared with child processes: an anonymous MAP_SHARED mapping,
/// zero-filled, unmapped on destruction.
class SharedMemory {
 public:
  explicit SharedMemory(std::size_t bytes);
  ~SharedMemory();
  SharedMemory(const SharedMemory&) = delete;
  SharedMemory& operator=(const SharedMemory&) = delete;
  void* data() const noexcept { return data_; }

 private:
  void* data_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Arrival record of one producer's messages, indexed by sequence. It
/// points into shared memory, so a sink in another process of the cluster
/// records into the same ledger.
struct Ledger {
  static constexpr std::int32_t kMissing =
      std::numeric_limits<std::int32_t>::min();
  /// Arrived without a due time (first release).
  static constexpr std::int32_t kNoDue =
      std::numeric_limits<std::int32_t>::max();
  /// Due -> on_message, ns (saturated); kMissing until it arrives.
  std::int32_t* latency_ns = nullptr;
  std::size_t size = 0;
  std::atomic<std::uint64_t>* duplicates = nullptr;
  std::atomic<std::uint64_t>* out_of_range = nullptr;
};

/// Process-wide stream state the content classes reach (they are created
/// by the framework's registry and get no constructor arguments). Written
/// before the nodes start and read after they stop; during the run each
/// field is touched by one executive thread only.
struct State {
  std::vector<Schedule> schedules;
  std::unique_ptr<SharedMemory> ledger_memory;
  std::vector<Ledger> ledgers;
  /// Node a's launcher (for the grid anchor).
  const rtcf::runtime::Launcher* launcher = nullptr;
  /// Per producer, written by its on_release.
  struct Producer {
    std::uint64_t releases = 0;
    std::uint64_t sent = 0;
    std::int64_t first_release_ns = 0;
    std::int64_t due0_ns = 0;
    bool anchored = false;
    const rtcf::runtime::Launcher::ComponentStats* stats = nullptr;
  };
  std::vector<Producer> producers;
};
State& state();

/// Resets the state for a run over `schedules`.
void reset_state(std::vector<Schedule> schedules);

std::string producer_name(int index);
std::string sink_name(int index);

/// The stream architecture: producers P0..P3 (periodic, kPeriodNs) and
/// sinks S1..S3 bound one to one, plus P0's candidate sinks `p0_sinks`
/// of which `p0_target` is bound to P0; every binding buffers
/// `buffer_size` messages. Every component is swappable and one mode,
/// "Run", releases the producers.
std::unique_ptr<rtcf::model::Architecture> make_arch(
    const std::string& p0_target, const std::vector<std::string>& p0_sinks,
    std::size_t buffer_size);

/// The two nodes in one process and their data link (wrapped for
/// counting).
struct Cluster {
  std::unique_ptr<rtcf::model::Architecture> global;
  std::shared_ptr<CountingChannel> data_a;  ///< a's end of the a<->b link.
  std::shared_ptr<CountingChannel> data_b;  ///< b's end.
  std::unique_ptr<rtcf::dist::NodeRuntime> a;
  std::unique_ptr<rtcf::dist::NodeRuntime> b;
};

/// Builds a cluster over `global`/`map` with default node options except
/// the run horizon. The data link is TCP on the loopback interface.
/// Throws when the link cannot be made.
Cluster make_cluster(std::unique_ptr<rtcf::model::Architecture> global,
                     const rtcf::validate::NodeMap& map, double run_seconds);

/// The exit gateway of producer `producer`'s binding on `node` (also a
/// retired one: its content stays readable, with its counters), or null
/// when the node never hosted it.
const rtcf::dist::GatewayExitContent* exit_gateway(
    rtcf::dist::NodeRuntime& node, int producer);

/// One node's drop and queue counters, read after it stopped. Exit drops
/// are per route (the exit gateway of each producer's binding).
struct NodeCounters {
  std::uint64_t buffer_drops = 0;  ///< Local bounded buffers, drop-newest.
  std::uint64_t entry_drops = 0;   ///< Entry gateways and the inbox.
  std::uint64_t queued = 0;        ///< Route queues + inbox, still waiting.
  std::uint64_t exit_drops[kProducers] = {};
};
NodeCounters node_counters(rtcf::dist::NodeRuntime& node);

/// Per-route conservation once both nodes stopped: offered == delivered +
/// dropped + queued, with exit drops per route and buffer and entry drops
/// per node (the library counts those per node only, so the routes'
/// remaining gaps must add up to them exactly). Sequences must show no
/// duplicate and nothing never offered. Records failed checks in
/// `result`; returns the total dropped.
std::uint64_t check_conservation(const NodeCounters& a, const NodeCounters& b,
                                 Result& result);

/// Latency samples (us) of producer messages whose release index lies in
/// [first, last); also counts offered and lost messages of that range.
struct RangeStats {
  std::vector<double> latency_us;
  std::uint64_t offered = 0;
  std::uint64_t lost = 0;
};
RangeStats range_stats(std::size_t first, std::size_t last);

/// p99 of the producers' release lateness (us) over releases [first, last).
double lateness_p99_us(std::size_t first, std::size_t last);

/// Sum over producers of launcher shed releases and deadline misses.
void release_counts(std::uint64_t& shed, std::uint64_t& misses);

}  // namespace perfbench::stream
