// reload-churn: the bridge-stream cluster over the shm ring, with node b in
// a child process, carrying a fixed sub-knee stream of ~50k msg/s while one
// coordinator runs a closed loop of two-phase reloads with a fixed pause
// between commits. The seed orders the targets, drawn from three reshapes
// of producer P0's binding: swap its sink for a fresh instance, re-target
// it to another sink, move its sinks between nodes. The control plane (dist coordinator, validate,
// reconfig, soleil apply) dominates; the data plane is refreshed and
// drained at quiescence instead of streaming steadily, so a change that
// speeds up commits by stalling data shows up here.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/plan_codec.hpp"
#include "dist/slice.hpp"
#include "reconfig/plan_delta.hpp"
#include "soleil/plan.hpp"
#include "stream.hpp"
#include "trace.hpp"
#include "validate/validator.hpp"

namespace perfbench {

namespace {

using namespace rtcf;
using stream::kPeriodNs;
using stream::kProducers;

constexpr double kStreamRate = 50e3;
/// Pause between commits: short, so a 20-s run holds about five thousand
/// commits. Every reload allocates the re-wired binding's buffer afresh in
/// the nodes' never-freed areas, so resident memory grows with the number
/// of commits (~25 KB each at kBufferSize).
constexpr auto kPause = std::chrono::milliseconds(3);
/// Commits are split into segments of this many consecutive commits and
/// reported over their quiet quarter (common.hpp); a 20-s run has about
/// twenty, so the quarter holds enough commits for a p99.
constexpr std::size_t kSegmentCommits = 250;

/// `commits` cut into segments of kSegmentCommits.
std::vector<std::vector<double>> segments_of(
    const std::vector<double>& commits) {
  std::vector<std::vector<double>> segments;
  for (std::size_t i = 0; i < commits.size(); i += kSegmentCommits) {
    const std::size_t end = std::min(i + kSegmentCommits, commits.size());
    segments.emplace_back(commits.begin() + static_cast<std::ptrdiff_t>(i),
                          commits.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return segments;
}
/// Binding buffers: the stream releases at most ~8 messages per route and
/// period, so 256 slots ride out a commit's quiescence park.
constexpr std::size_t kBufferSize = 256;
constexpr int kSetups = 21;
/// Horizon of the set-up clusters that are torn down again: node b's
/// executive run ends at once.
constexpr double kThrowawayHorizonS = 0.01;

/// Which reshapes are in force. Every combination is a valid assembly.
struct Shape {
  bool swapped = false;     ///< P0's main sink is S0x instead of S0.
  bool retargeted = false;  ///< P0 is bound to S0r instead of its main sink.
  bool moved = false;       ///< P0's sinks live on node a instead of b.
};

enum class Op { Swap, Retarget, Move };

std::unique_ptr<model::Architecture> arch_for(const Shape& shape) {
  const std::string main = shape.swapped ? "S0x" : "S0";
  return stream::make_arch(shape.retargeted ? "S0r" : main, {main, "S0r"},
                           kBufferSize);
}

validate::NodeMap map_for(const Shape& shape) {
  validate::NodeMap map;
  map.nodes = {"a", "b"};
  for (int p = 0; p < kProducers; ++p) {
    map.assignment[stream::producer_name(p)] = "a";
    if (p != 0) map.assignment[stream::sink_name(p)] = "b";
  }
  // Both names of the swapped sink are assigned, so a swap stays a plain
  // reload under the agreed map.
  const char* home = shape.moved ? "a" : "b";
  for (const char* sink : {"S0", "S0x", "S0r"}) map.assignment[sink] = home;
  return map;
}

/// The per-layer replay of one commit's coordinator-side work, timed by
/// the benchmark on the same inputs: rule engine, slicing + routes, plan
/// and delta encoding for both nodes, and node b's reload planning.
struct Replay {
  std::vector<double> rules_us, slice_us, encode_us, plan_reload_us;
};

void replay(const model::Architecture& target, const validate::NodeMap& map,
            const dist::ReconfigCoordinator& coordinator, std::uint64_t id,
            Replay& out) {
  static const char* const kNodes[] = {"a", "b"};
  out.rules_us.push_back(
      timed(trace::kRules, id, [&] { (void)validate::validate(target); }));
  std::vector<model::Architecture> slices;
  out.slice_us.push_back(timed(trace::kSlice, id, [&] {
    for (const char* node : kNodes) {
      slices.push_back(dist::slice_architecture(target, map, node));
    }
    (void)dist::compute_routes(target, map);
  }));
  std::vector<model::AssemblyPlan> plans;
  std::vector<reconfig::PlanDelta> deltas;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    plans.push_back(soleil::snapshot_assembly(slices[i], /*partitions=*/1));
    deltas.push_back(reconfig::diff_plans(
        coordinator.node_snapshot(kNodes[i]), plans.back()));
  }
  out.encode_us.push_back(timed(trace::kEncode, id, [&] {
    for (std::size_t i = 0; i < plans.size(); ++i) {
      (void)dist::encode_plan(plans[i]);
      (void)dist::encode_delta(deltas[i]);
    }
  }));
  out.plan_reload_us.push_back(timed(trace::kPlanReload, id, [&] {
    (void)reconfig::plan_reload(coordinator.node_snapshot("b"), slices[1]);
  }));
}

/// What the parent and node b's process share: b's listening ports, its
/// progress, and its counters once it stopped.
struct ChildBlock {
  enum Phase : int { kStarting, kListening, kReady, kStop, kDone, kFailed };
  std::atomic<int> phase{kStarting};
  std::atomic<int> shm_linked{0};
  std::atomic<std::uint16_t> control_port{0};
  std::atomic<std::uint16_t> data_port{0};
  stream::NodeCounters counters;
  char error[256] = {};
};

/// Node b in its own process. In one process the two nodes share the
/// library's process-wide heap and immortal arenas, which concurrent
/// commits corrupt (a known defect: the run aborts with heap corruption in
/// about one of ten 10-s runs), and a deployed node is a process anyway.
[[noreturn]] void run_node_b(ChildBlock& block, const Shape& shape,
                             double horizon_s,
                             const std::string& shm_namespace) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  int code = 0;
  try {
    std::shared_ptr<comm::TcpChannel> control = comm::TcpChannel::listen(0);
    std::shared_ptr<comm::TcpChannel> data = comm::TcpChannel::listen(0);
    if (control == nullptr || data == nullptr) {
      throw std::runtime_error("node b cannot listen on loopback");
    }
    block.control_port = control->bound_port();
    block.data_port = data->bound_port();
    block.phase = ChildBlock::kListening;
    const auto global = arch_for(shape);
    dist::NodeRuntime::Options options;
    options.run_duration = rtsj::RelativeTime::nanoseconds(
        static_cast<std::int64_t>(horizon_s * 1e9));
    options.shm_namespace = shm_namespace;
    dist::NodeRuntime b(*global, map_for(shape), "b", options);
    if (!control->accept_one() || !data->accept_one()) {
      throw std::runtime_error("node b: no connection from node a");
    }
    b.attach_control(control);
    b.connect_peer("a", data);
    b.start();
    block.phase = ChildBlock::kReady;
    while (block.phase.load() != ChildBlock::kStop) {
      block.shm_linked = b.shm_linked("a") ? 1 : 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    b.join_executive();
    b.stop();
    block.counters = stream::node_counters(b);
    block.phase = ChildBlock::kDone;
  } catch (const std::exception& e) {
    std::snprintf(block.error, sizeof block.error, "%s", e.what());
    block.phase = ChildBlock::kFailed;
    code = 1;
  }
  ::_exit(code);
}

/// Waits (polling) until node b's phase reaches at least `phase`; false on
/// timeout or when it failed.
bool await_phase(const ChildBlock& block, int phase, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (now_s() < deadline) {
    const int now = block.phase.load();
    if (now == ChildBlock::kFailed) return false;
    if (now >= phase) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Owns node b's process: kills it if still running and always reaps it.
class ChildProcess {
 public:
  explicit ChildProcess(pid_t pid) : pid_(pid) {}
  ~ChildProcess() { reap(1.0); }
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Waits up to `timeout_s` for the child to exit, then kills it. True
  /// when it exited on its own with status 0.
  bool reap(double timeout_s) {
    if (pid_ <= 0) return exited_ok_;
    const double deadline = now_s() + timeout_s;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() >= deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = 0;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = 0;
    exited_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return exited_ok_;
  }

 private:
  pid_t pid_;
  bool exited_ok_ = false;
};

/// The measured cluster: node a and the coordinator in this process, node
/// b in a child process; `block` lives in memory both processes share.
struct Nodes {
  std::unique_ptr<stream::SharedMemory> block_memory;
  ChildBlock* block = nullptr;
  std::unique_ptr<ChildProcess> child;
  std::unique_ptr<model::Architecture> global;
  std::unique_ptr<dist::NodeRuntime> a;
  std::unique_ptr<dist::ReconfigCoordinator> coordinator;
  std::shared_ptr<CountingChannel> control_a;  ///< Coordinator's end to a.
  std::shared_ptr<CountingChannel> control_b;  ///< Coordinator's end to b.
};

/// Forks node b's process and builds node a and the coordinator, up to
/// the point where both nodes are linked, the coordinator is attached to
/// both and node b serves. Node a is not started: its start starts the
/// stream. Throws when node b does not come up.
std::unique_ptr<Nodes> connect_nodes(const Shape& shape, double horizon_s,
                                     const std::string& shm_namespace) {
  auto nodes = std::make_unique<Nodes>();
  nodes->block_memory = std::make_unique<stream::SharedMemory>(
      sizeof(ChildBlock));
  ChildBlock& block = *new (nodes->block_memory->data()) ChildBlock();
  nodes->block = &block;
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) run_node_b(block, shape, horizon_s, shm_namespace);
  nodes->child = std::make_unique<ChildProcess>(pid);
  if (!await_phase(block, ChildBlock::kListening, 20.0)) {
    throw std::runtime_error(std::string("node b did not start: ") +
                             block.error);
  }
  nodes->global = arch_for(shape);
  const validate::NodeMap map = map_for(shape);
  dist::NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::nanoseconds(
      static_cast<std::int64_t>(horizon_s * 1e9));
  options.shm_namespace = shm_namespace;
  nodes->a =
      std::make_unique<dist::NodeRuntime>(*nodes->global, map, "a", options);
  nodes->coordinator = std::make_unique<dist::ReconfigCoordinator>(map);
  auto [a_node, a_coord] = comm::LoopbackChannel::make_pair();
  std::shared_ptr<comm::Channel> b_control =
      comm::TcpChannel::connect("127.0.0.1", block.control_port.load());
  std::shared_ptr<comm::Channel> b_data =
      comm::TcpChannel::connect("127.0.0.1", block.data_port.load());
  if (b_control == nullptr || b_data == nullptr) {
    throw std::runtime_error("cannot connect to node b");
  }
  nodes->control_a = std::make_shared<CountingChannel>(a_coord);
  nodes->control_b = std::make_shared<CountingChannel>(b_control);
  nodes->a->attach_control(a_node);
  nodes->coordinator->attach("a", nodes->control_a, *nodes->global);
  nodes->coordinator->attach("b", nodes->control_b, *nodes->global);
  nodes->a->connect_peer("b", b_data);
  if (!await_phase(block, ChildBlock::kReady, 20.0)) {
    throw std::runtime_error(std::string("node b did not come up: ") +
                             block.error);
  }
  return nodes;
}

/// Asks node b to stop and reaps its process; true when it stopped
/// cleanly.
bool stop_node_b(Nodes& nodes) {
  nodes.block->phase = ChildBlock::kStop;
  const bool done = await_phase(*nodes.block, ChildBlock::kDone, 20.0);
  return nodes.child->reap(5.0) && done;
}

}  // namespace

Result run_reload_churn(const RunConfig& config) {
  Result result;
  // The stream outlasts the commit loop by a margin, so every commit runs
  // against live traffic.
  const double stream_s = config.seconds + 0.5;
  std::vector<stream::Step> steps;
  steps.push_back({kStreamRate, 0,
                   static_cast<std::size_t>(stream_s * 1e9 / kPeriodNs)});
  Rng rng(config.seed);
  std::vector<stream::Schedule> schedules = stream::make_schedules(steps, rng);
  std::vector<Op> ops(16384);
  for (Op& op : ops) op = static_cast<Op>(rng.between(0, 2));

  const std::string shm_namespace =
      "perfbench-" + std::to_string(::getpid());
  const double horizon_s = stream_s + 1.0;
  // The ledger lives in memory both processes share.
  stream::reset_state(std::move(schedules));
  // Set-up: the measured cluster's own construction (connect_nodes),
  // repeated; every cluster but the last is torn down again.
  std::vector<double> setups;
  Shape shape;
  std::unique_ptr<Nodes> nodes;
  for (int i = 0; i < kSetups; ++i) {
    const bool last = i + 1 == kSetups;
    nodes.reset();
    const double t0 = now_s();
    nodes = connect_nodes(shape, last ? horizon_s : kThrowawayHorizonS,
                          shm_namespace);
    setups.push_back(now_s() - t0);
    if (!last && !stop_node_b(*nodes)) {
      throw std::runtime_error(std::string("set-up node b did not stop: ") +
                               nodes->block->error);
    }
  }
  ChildBlock& block = *nodes->block;
  dist::NodeRuntime* node_a = nodes->a.get();
  dist::ReconfigCoordinator& coordinator = *nodes->coordinator;
  const std::shared_ptr<CountingChannel>& control_a = nodes->control_a;
  const std::shared_ptr<CountingChannel>& control_b = nodes->control_b;
  stream::state().launcher = &node_a->launcher();

  trace::set_enabled(false);
  node_a->start();
  // The ring is negotiated over the TCP link once both nodes serve.
  const double link_deadline = now_s() + 2.0;
  while (!(node_a->shm_linked("b") && block.shm_linked.load() != 0) &&
         now_s() < link_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool linked = node_a->shm_linked("b") && block.shm_linked.load() != 0;
  if (!linked) result.fail_check("shm ring was not negotiated");

  const std::uint64_t epoch0 = node_a->mode_manager().plan_epoch();
  // Commit round trips; a traced run traces the second half of its time.
  std::vector<double> untraced_us;
  std::vector<double> traced_us;
  std::vector<double> node_us;
  std::vector<double> coordinator_self_us;
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t drained = 0;
  // A move back to node b replaces P0's retired exit on node a with a
  // fresh one under the same name, which hides the retired exit's drop
  // counter from node_counters; it is read just before that commit (the
  // retired exit takes no message, so its count is final).
  std::uint64_t retired_exit_drops = 0;
  Replay replayed;
  const auto control_frames = [&] {
    return control_a->frames_sent() + control_a->frames_received() +
           control_b->frames_sent() + control_b->frames_received();
  };
  const std::uint64_t control_frames0 = control_frames();
  const double loop_start = now_s();
  const double loop_end = loop_start + config.seconds;
  std::size_t next_op = 0;
  for (double now = loop_start; now < loop_end; now = now_s()) {
    const bool traced =
        config.trace && now - loop_start >= config.seconds / 2.0;
    trace::set_enabled(traced);
    const Op op = ops[next_op++ % ops.size()];
    Shape target = shape;
    if (op == Op::Swap) target.swapped = !target.swapped;
    if (op == Op::Retarget) target.retargeted = !target.retargeted;
    if (op == Op::Move) target.moved = !target.moved;
    const auto target_arch = arch_for(target);
    const validate::NodeMap target_map = map_for(target);
    if (traced) {
      replay(*target_arch, target_map, coordinator, committed + aborted,
             replayed);
    }
    const dist::GatewayExitContent* retiring =
        op == Op::Move && shape.moved ? stream::exit_gateway(*node_a, 0)
                                      : nullptr;
    const std::uint64_t retiring_drops =
        retiring != nullptr ? retiring->dropped() : 0;
    const std::int64_t t0 = trace::now_ns();
    const dist::ReconfigCoordinator::Outcome outcome =
        op == Op::Move ? coordinator.reshard(*target_arch, target_map)
                       : coordinator.coordinate_reload(*target_arch);
    const std::int64_t t1 = trace::now_ns();
    if (traced) trace::record(trace::kCommit, committed + aborted, 0, t0, t1);
    windows.emplace_back(t0, t1);
    const double round_trip_us = static_cast<double>(t1 - t0) / 1000.0;
    if (outcome.committed) {
      ++committed;
      shape = target;
      retired_exit_drops += retiring_drops;
      (traced ? traced_us : untraced_us).push_back(round_trip_us);
      double slowest = 0.0;
      for (const auto& node : outcome.nodes) {
        const double us = static_cast<double>(node.latency_ns) / 1000.0;
        node_us.push_back(us);
        slowest = std::max(slowest, us);
        drained += node.drained;
      }
      coordinator_self_us.push_back(round_trip_us - slowest);
    } else {
      ++aborted;
      std::string errors;
      for (const auto& d : outcome.report.diagnostics()) {
        if (d.severity == validate::Severity::Error) {
          errors += " [" + d.rule + "] " + d.subject;
        }
      }
      result.note("commit %llu aborted: %s%s",
                  static_cast<unsigned long long>(committed + aborted),
                  outcome.reason.c_str(), errors.c_str());
    }
    // Both nodes must sit on the same epoch, one step per commit (node b
    // reports its epoch in its reply).
    const std::uint64_t ea = node_a->mode_manager().plan_epoch();
    std::uint64_t eb = ea;
    for (const auto& node : outcome.nodes) {
      if (node.node == "b" && outcome.committed) eb = node.epoch;
    }
    if (ea != eb || ea != epoch0 + committed) {
      result.fail_check("plan epochs a=" + std::to_string(ea) +
                        " b=" + std::to_string(eb) + " after " +
                        std::to_string(committed) + " commits");
      break;
    }
    std::this_thread::sleep_for(kPause);
  }
  trace::set_enabled(false);
  const double loop_s = now_s() - loop_start;
  const std::uint64_t frames = control_frames() - control_frames0;
  node_a->join_executive();
  node_a->stop();
  stream::NodeCounters counters_a = stream::node_counters(*node_a);
  counters_a.exit_drops[0] += retired_exit_drops;
  // Node b stops only now: a's final flush must find it serving.
  if (!stop_node_b(*nodes)) {
    result.fail_check(std::string("node b did not stop cleanly: ") +
                      block.error);
  }
  // Before the analysis below allocates: rss_peak_mb is the workload's.
  const double rss_mb = rss_peak_mb();

  // ---- output checks ------------------------------------------------------
  const stream::State& st = stream::state();
  for (int p = 0; p < kProducers; ++p) {
    if (st.producers[p].releases < st.schedules[p].bursts.size()) {
      result.fail_check(stream::producer_name(p) +
                        " did not finish its schedule within the horizon");
    }
  }
  const std::uint64_t dropped =
      stream::check_conservation(counters_a, block.counters, result);
  const std::uint64_t attempts = committed + aborted;
  result.attempted = attempts;
  result.failed += aborted;

  // ---- stream during churn ------------------------------------------------
  stream::RangeStats stream_range = stream::range_stats(1, steps[0].last);
  const Distribution msg = summarize(stream_range.latency_us);
  const Distribution commit = quiet_quarter(segments_of(untraced_us)).pooled;
  const double abort_ratio = ratio(aborted, attempts);
  const double loss_ratio = ratio(stream_range.lost, stream_range.offered);
  const double setup_s = median_of(setups);
  note_setups(result, setups);
  note_distribution(result, "commit_us (all)", summarize(untraced_us), "us");
  note_distribution(result, "commit_us (quiet quarter)", commit, "us");
  note_distribution(result, "msg_us (stream during churn)", msg, "us");
  result.note("commits %llu, aborts %llu (commit_abort_ratio %.4f), %.1f "
              "commits/s, drained %llu",
              static_cast<unsigned long long>(committed),
              static_cast<unsigned long long>(aborted), abort_ratio,
              static_cast<double>(committed) / loop_s,
              static_cast<unsigned long long>(drained));
  result.note("stream: offered %llu, lost %llu (msg_loss_ratio %.6f), "
              "dropped %llu, shm ring %s, setup_s=%.4f (median of %d)",
              static_cast<unsigned long long>(stream_range.offered),
              static_cast<unsigned long long>(stream_range.lost),
              loss_ratio, static_cast<unsigned long long>(dropped),
              linked ? "linked" : "NOT linked", setup_s, kSetups);
  if (!config.trace && !commit.p99_supported) {
    result.fail_check("too few commits for a commit p99");
  }
  result.named("setup_s", "s", setup_s);
  result.named("rss_peak_mb", "MB", rss_mb);
  result.named("msg_p50_us", "us", msg.p50);
  result.named("msg_p99_us", "us", msg.p99);
  result.named("msg_loss_ratio", "ratio", loss_ratio);
  result.named("commit_p50_us", "us", commit.p50);
  result.named("commit_p99_us", "us", commit.p99);
  result.named("commit_abort_ratio", "ratio", abort_ratio);

  result.add_e2e("setup_s", setup_s);
  result.add_e2e("rss_peak_mb", rss_mb);
  result.add_e2e("op_p50_us", commit.p50);
  result.add_e2e("op_p99_us", commit.p99);
  result.add_e2e("op_per_s", static_cast<double>(committed) / loop_s);
  // A commit that stalls or drops the stream is no success: messages
  // lost during the churn count against the operations.
  result.add_e2e("op_ok_ratio", (1.0 - abort_ratio) * (1.0 - loss_ratio));

  if (config.trace) {
    const std::vector<Span> spans = trace::collect();
    const double traced = quiet_quarter(segments_of(traced_us)).pooled.p50;
    // Longest gap between consecutive sink arrivals that spans a commit.
    std::vector<std::int64_t> arrivals;
    for (int p = 0; p < kProducers; ++p) {
      const stream::Schedule& plan = st.schedules[p];
      const stream::Ledger& ledger = st.ledgers[p];
      const std::int64_t due0 = st.producers[p].due0_ns;
      for (std::size_t k = 1; k < plan.bursts.size(); ++k) {
        const std::int64_t due =
            due0 + static_cast<std::int64_t>(k) * kPeriodNs;
        for (std::uint64_t seq = plan.first_seq[k];
             seq < plan.first_seq[k + 1]; ++seq) {
          const std::int32_t v = ledger.latency_ns[seq];
          if (v != stream::Ledger::kMissing && v != stream::Ledger::kNoDue) {
            arrivals.push_back(due + v);
          }
        }
      }
    }
    std::sort(arrivals.begin(), arrivals.end());
    std::vector<double> gaps_us;
    for (const auto& [t0, t1] : windows) {
      auto lo = std::upper_bound(arrivals.begin(), arrivals.end(), t0);
      if (lo != arrivals.begin()) --lo;  // last arrival before the call
      auto hi = std::lower_bound(arrivals.begin(), arrivals.end(), t1);
      if (hi == arrivals.end()) continue;  // first arrival after the return
      std::int64_t gap = 0;
      for (auto it = lo; it != hi; ++it) gap = std::max(gap, *(it + 1) - *it);
      gaps_us.push_back(static_cast<double>(gap) / 1000.0);
    }
    const Distribution gap = summarize(gaps_us);
    const Distribution node = summarize(node_us);
    std::uint64_t shed = 0;
    std::uint64_t misses = 0;
    stream::release_counts(shed, misses);
    result.add_layer("monitor.shed_releases", static_cast<double>(shed));
    result.add_layer("monitor.deadline_misses", static_cast<double>(misses));
    result.add_layer("runtime.release_lateness_p99_us",
                     stream::lateness_p99_us(0, steps[0].last));
    result.add_layer("dist.node_commit_p50_us", node.p50);
    result.add_layer("dist.coordinator_self_us",
                     summarize(coordinator_self_us).p50);
    result.add_layer("dist.slice_us", summarize(replayed.slice_us).p50);
    result.add_layer("dist.encode_us", summarize(replayed.encode_us).p50);
    result.add_layer("dist.control_frames_per_commit", ratio(frames, attempts));
    result.add_layer("dist.commit_gap_p99_us",
                     gap.p99_supported ? gap.p99 : gap.top_value);
    result.add_layer("validate.rules_us", summarize(replayed.rules_us).p50);
    result.add_layer("reconfig.plan_reload_us",
                     summarize(replayed.plan_reload_us).p50);
    result.add_layer("reconfig.drained_per_commit", ratio(drained, committed));
    result.add_layer("trace.overhead_pct",
                     (traced - commit.p50) / commit.p50 * 100.0);
    result.note("commit_p50_us traced %.3f vs untraced %.3f", traced,
                commit.p50);
    note_distribution(result, "dist.commit_gap_us", gap, "us");
    note_distribution(result, "node commit (NodeResult::latency_ns)", node,
                      "us");
    save_trace(config, spans, result);
  }
  return result;
}

}  // namespace perfbench
