#include "stream.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <new>
#include <stdexcept>

#include "runtime/content_registry.hpp"
#include "trace.hpp"

namespace perfbench::stream {

using namespace rtcf;

namespace {

/// Producer content: one seeded burst per release, every message stamped
/// with its due time; the producer's index rides in type_id and the
/// message's number in `sequence`.
class ProducerBase : public comm::Content {
 public:
  explicit ProducerBase(int index) : index_(index) {}

  void on_release() override {
    State& st = state();
    State::Producer& me = st.producers[index_];
    const Schedule& plan = st.schedules[index_];
    const std::int64_t entered = trace::now_ns();
    const std::uint64_t k = me.releases++;
    if (k >= plan.bursts.size()) return;  // schedule done; stay silent
    std::int64_t due = 0;
    if (k == 0) {
      me.first_release_ns = entered;
    } else {
      if (!me.anchored) {
        // Same executive thread as the launcher that recorded this.
        me.stats = &st.launcher->stats(producer_name(index_));
        me.due0_ns = me.first_release_ns -
                     static_cast<std::int64_t>(std::llround(
                         me.stats->start_lateness_us.samples().front() *
                         1000.0));
        me.anchored = true;
      }
      const std::uint64_t slot = k + me.stats->shed;
      due = me.due0_ns + static_cast<std::int64_t>(slot) * kPeriodNs;
    }
    comm::Message m;
    m.type_id = static_cast<std::uint32_t>(index_);
    m.timestamp_ns = due;
    std::uint64_t seq = plan.first_seq[k];
    for (std::uint32_t i = 0; i < plan.bursts[k]; ++i, ++seq) {
      m.sequence = seq;
      port(0).send(m);
    }
    me.sent += plan.bursts[k];
    if (trace::enabled()) {
      trace::record(trace::kProducer,
                    (static_cast<std::uint64_t>(index_) << 40) | k, 0,
                    entered, trace::now_ns());
    }
  }

 private:
  int index_;
};

#define PERFBENCH_PRODUCER(I)                                  \
  class PerfbenchProducer##I final : public ProducerBase {     \
   public:                                                     \
    PerfbenchProducer##I() : ProducerBase(I) {}                \
  };                                                           \
  RTCF_REGISTER_CONTENT(PerfbenchProducer##I)

PERFBENCH_PRODUCER(0)
PERFBENCH_PRODUCER(1)
PERFBENCH_PRODUCER(2)
PERFBENCH_PRODUCER(3)
static_assert(kProducers == 4, "one registered class per producer");

/// Sink: records due -> arrival latency into its producer's ledger.
class PerfbenchSink final : public comm::Content {
 public:
  void on_message(const comm::Message& m) override {
    const std::int64_t now = trace::now_ns();
    State& st = state();
    if (m.type_id >= st.ledgers.size()) return;
    Ledger& ledger = st.ledgers[m.type_id];
    if (m.sequence >= ledger.size) {
      ledger.out_of_range->fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::int32_t& slot = ledger.latency_ns[m.sequence];
    if (slot != Ledger::kMissing) {
      ledger.duplicates->fetch_add(1, std::memory_order_relaxed);
    }
    if (m.timestamp_ns == 0) {
      slot = Ledger::kNoDue;
    } else {
      const std::int64_t latency = std::clamp<std::int64_t>(
          now - m.timestamp_ns, 0, Ledger::kNoDue - 1);
      slot = static_cast<std::int32_t>(latency);
    }
    if (trace::enabled()) {
      // Same id as the producer span of the message's release.
      const auto& first = st.schedules[m.type_id].first_seq;
      const auto release = static_cast<std::uint64_t>(
          std::upper_bound(first.begin(), first.end(), m.sequence) -
          first.begin() - 1);
      trace::record(trace::kSink, (std::uint64_t{m.type_id} << 40) | release,
                    0, now, trace::now_ns());
    }
  }
};
RTCF_REGISTER_CONTENT(PerfbenchSink)

std::pair<std::shared_ptr<comm::Channel>, std::shared_ptr<comm::Channel>>
tcp_pair() {
  std::shared_ptr<comm::TcpChannel> server = comm::TcpChannel::listen(0);
  if (server == nullptr) throw std::runtime_error("cannot listen on loopback");
  std::shared_ptr<comm::TcpChannel> client =
      comm::TcpChannel::connect("127.0.0.1", server->bound_port());
  if (client == nullptr || !server->accept_one()) {
    throw std::runtime_error("cannot connect on loopback");
  }
  return {client, server};
}

}  // namespace

State& state() {
  static State instance;
  return instance;
}

std::string producer_name(int index) { return "P" + std::to_string(index); }
std::string sink_name(int index) { return "S" + std::to_string(index); }

std::unique_ptr<model::Architecture> make_arch(
    const std::string& p0_target, const std::vector<std::string>& p0_sinks,
    std::size_t buffer_size) {
  using namespace model;
  auto arch = std::make_unique<Architecture>();
  auto& rt = arch->add_thread_domain("RT", DomainType::Realtime, 20);
  auto& reg = arch->add_thread_domain("reg", DomainType::Regular, 5);
  // P0's sinks get a domain of their own: they may move to node a, and a
  // thread domain must not span nodes.
  auto& reg0 = arch->add_thread_domain("reg0", DomainType::Regular, 5);
  const auto add_sink = [&](const std::string& name, ThreadDomain& domain) {
    auto& sink = arch->add_active(name, ActivationKind::Sporadic);
    sink.set_content_class("PerfbenchSink");
    sink.set_criticality(Criticality::Low);
    sink.set_swappable(true);
    sink.add_interface({"in", InterfaceRole::Server, "IStream"});
    arch->add_child(domain, sink);
  };
  ModeDecl mode;
  mode.name = "Run";
  for (int p = 0; p < kProducers; ++p) {
    auto& producer = arch->add_active(
        producer_name(p), ActivationKind::Periodic,
        rtsj::RelativeTime::nanoseconds(kPeriodNs));
    producer.set_content_class("PerfbenchProducer" + std::to_string(p));
    producer.set_cost(rtsj::RelativeTime::microseconds(20));
    producer.set_swappable(true);
    producer.add_interface({"out", InterfaceRole::Client, "IStream"});
    arch->add_child(rt, producer);
    if (p == 0) {
      for (const std::string& name : p0_sinks) add_sink(name, reg0);
    } else {
      add_sink(sink_name(p), reg);
    }
    Binding binding;
    binding.client = {producer_name(p), "out"};
    binding.server = {p == 0 ? p0_target : sink_name(p), "in"};
    binding.desc.protocol = Protocol::Asynchronous;
    binding.desc.buffer_size = buffer_size;
    arch->add_binding(binding);
    mode.components.push_back({producer_name(p), {}, {}});
  }
  arch->add_mode(std::move(mode));
  return arch;
}

std::vector<Schedule> make_schedules(const std::vector<Step>& steps,
                                     Rng& rng) {
  std::vector<Schedule> schedules(kProducers);
  for (Schedule& s : schedules) {
    s.first_seq.push_back(0);
    for (const Step& step : steps) {
      const double mean = step.rate_per_s * static_cast<double>(kPeriodNs) *
                          1e-9 / kProducers;
      const auto lo = static_cast<std::uint64_t>(std::ceil(mean / 2));
      const auto hi =
          std::max(lo, static_cast<std::uint64_t>(std::floor(mean * 1.5)));
      for (std::size_t k = step.first; k < step.last; ++k) {
        const auto burst = static_cast<std::uint32_t>(rng.between(lo, hi));
        s.bursts.push_back(burst);
        s.first_seq.push_back(s.first_seq.back() + burst);
      }
    }
  }
  return schedules;
}

SharedMemory::SharedMemory(std::size_t bytes) : bytes_(bytes) {
  data_ = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (data_ == MAP_FAILED) throw std::runtime_error("cannot map shared memory");
}

SharedMemory::~SharedMemory() { ::munmap(data_, bytes_); }

void reset_state(std::vector<Schedule> schedules) {
  State& st = state();
  st.schedules = std::move(schedules);
  const std::size_t producers = st.schedules.size();
  std::size_t bytes = 2 * producers * sizeof(std::atomic<std::uint64_t>);
  for (const Schedule& s : st.schedules) {
    bytes += s.first_seq.back() * sizeof(std::int32_t);
  }
  st.ledgers.assign(producers, Ledger());
  st.ledger_memory = std::make_unique<SharedMemory>(bytes);
  auto* counters =
      static_cast<std::atomic<std::uint64_t>*>(st.ledger_memory->data());
  auto* slots = reinterpret_cast<std::int32_t*>(counters + 2 * producers);
  for (std::size_t p = 0; p < producers; ++p) {
    Ledger& ledger = st.ledgers[p];
    ledger.duplicates = new (&counters[2 * p]) std::atomic<std::uint64_t>(0);
    ledger.out_of_range =
        new (&counters[2 * p + 1]) std::atomic<std::uint64_t>(0);
    ledger.size = st.schedules[p].first_seq.back();
    ledger.latency_ns = slots;
    std::fill(slots, slots + ledger.size, Ledger::kMissing);
    slots += ledger.size;
  }
  st.producers.assign(producers, State::Producer());
  st.launcher = nullptr;
}

Cluster make_cluster(std::unique_ptr<model::Architecture> global,
                     const validate::NodeMap& map, double run_seconds) {
  Cluster c;
  c.global = std::move(global);
  dist::NodeRuntime::Options options;
  options.run_duration = rtsj::RelativeTime::nanoseconds(
      static_cast<std::int64_t>(run_seconds * 1e9));
  c.a = std::make_unique<dist::NodeRuntime>(*c.global, map, "a", options);
  c.b = std::make_unique<dist::NodeRuntime>(*c.global, map, "b", options);
  auto [ab, ba] = tcp_pair();
  c.data_a = std::make_shared<CountingChannel>(ab);
  c.data_b = std::make_shared<CountingChannel>(ba);
  c.a->connect_peer("b", c.data_a);
  c.b->connect_peer("a", c.data_b);
  return c;
}

const dist::GatewayExitContent* exit_gateway(dist::NodeRuntime& node,
                                             int producer) {
  try {
    return dynamic_cast<const dist::GatewayExitContent*>(
        node.application().content(
            dist::gateway_exit_name(producer_name(producer), "out")));
  } catch (const std::invalid_argument&) {
    return nullptr;  // This node never hosted the exit.
  }
}

NodeCounters node_counters(dist::NodeRuntime& node) {
  NodeCounters c;
  for (const auto& buffer : node.application().buffers()) {
    c.buffer_drops += buffer->dropped_total();
  }
  c.entry_drops = node.gateway_stats().entry_dropped;
  c.queued = node.data_plane().stats().queued + node.inbox_depth();
  for (int p = 0; p < kProducers; ++p) {
    if (const auto* exit = exit_gateway(node, p)) {
      c.exit_drops[p] = exit->dropped();
    }
  }
  return c;
}

std::uint64_t check_conservation(const NodeCounters& a, const NodeCounters& b,
                                 Result& result) {
  State& st = state();
  if (a.queued + b.queued != 0) {
    result.fail_check("messages still queued after both nodes stopped");
  }
  std::uint64_t unexplained = 0;
  std::uint64_t exit_drops_total = 0;
  for (int p = 0; p < kProducers; ++p) {
    const Ledger& ledger = st.ledgers[p];
    const std::uint64_t offered = st.producers[p].sent;
    std::uint64_t delivered = 0;
    for (std::uint64_t seq = 0; seq < offered; ++seq) {
      if (ledger.latency_ns[seq] != Ledger::kMissing) ++delivered;
    }
    for (std::uint64_t seq = offered; seq < ledger.size; ++seq) {
      if (ledger.latency_ns[seq] != Ledger::kMissing) {
        result.fail_check("sink saw a sequence number never offered");
        break;
      }
    }
    if (ledger.duplicates->load() != 0 || ledger.out_of_range->load() != 0) {
      result.fail_check(producer_name(p) + ": duplicate or foreign messages");
    }
    const std::uint64_t exit_drops = a.exit_drops[p] + b.exit_drops[p];
    exit_drops_total += exit_drops;
    if (offered != delivered) {
      result.note("route %s: offered %llu, delivered %llu, exit drops %llu",
                  producer_name(p).c_str(),
                  static_cast<unsigned long long>(offered),
                  static_cast<unsigned long long>(delivered),
                  static_cast<unsigned long long>(exit_drops));
    }
    if (delivered + exit_drops > offered) {
      result.fail_check(producer_name(p) +
                        ": delivered + dropped exceeds offered");
      continue;
    }
    unexplained += offered - delivered - exit_drops;
  }
  const std::uint64_t node_drops =
      a.buffer_drops + b.buffer_drops + a.entry_drops + b.entry_drops;
  if (unexplained != node_drops) {
    result.fail_check("route gaps (" + std::to_string(unexplained) +
                      ") != buffer + entry drops (" +
                      std::to_string(node_drops) + ")");
  }
  return exit_drops_total + node_drops;
}

RangeStats range_stats(std::size_t first, std::size_t last) {
  State& st = state();
  RangeStats out;
  for (int p = 0; p < kProducers; ++p) {
    const Schedule& plan = st.schedules[p];
    const Ledger& ledger = st.ledgers[p];
    const std::size_t end = std::min<std::size_t>(
        last, std::min<std::uint64_t>(st.producers[p].releases,
                                      plan.bursts.size()));
    for (std::size_t k = first; k < end; ++k) {
      for (std::uint64_t seq = plan.first_seq[k]; seq < plan.first_seq[k + 1];
           ++seq) {
        ++out.offered;
        const std::int32_t v = ledger.latency_ns[seq];
        if (v == Ledger::kMissing) {
          ++out.lost;
        } else if (v != Ledger::kNoDue) {
          out.latency_us.push_back(static_cast<double>(v) / 1000.0);
        }
      }
    }
  }
  return out;
}

double lateness_p99_us(std::size_t first, std::size_t last) {
  State& st = state();
  std::vector<double> lateness;
  for (int p = 0; p < kProducers; ++p) {
    const auto& samples =
        st.launcher->stats(producer_name(p)).start_lateness_us.samples();
    for (std::size_t k = first; k < std::min(last, samples.size()); ++k) {
      lateness.push_back(samples[k]);
    }
  }
  std::sort(lateness.begin(), lateness.end());
  return percentile_sorted(lateness, 99.0);
}

void release_counts(std::uint64_t& shed, std::uint64_t& misses) {
  State& st = state();
  shed = 0;
  misses = 0;
  for (int p = 0; p < kProducers; ++p) {
    const auto& stats = st.launcher->stats(producer_name(p));
    shed += stats.shed;
    misses += stats.deadline_misses;
  }
}

}  // namespace perfbench::stream
