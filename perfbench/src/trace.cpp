#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {

struct ThreadBuffer {
  std::uint64_t thread_index = 0;
  std::uint64_t next = 0;
  std::vector<Span> spans;
};

/// Owns every thread's buffer, so spans outlive the threads that
/// recorded them.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry instance;
  return instance;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = reg.buffers.back().get();
    buffer->thread_index = reg.buffers.size();
    buffer->spans.reserve(1 << 16);
  }
  return *buffer;
}

}  // namespace

const char* name_of(std::uint16_t name) {
  static const char* const kNames[kNameCount] = {
      "prodline.tx",       "soleil.release",   "soleil.pump",
      "producer.release",  "sink.on_message",  "comm.send",
      "comm.receive",      "dist.commit",      "dist.slice",
      "dist.encode",       "validate.rules",   "validate.tenancy",
      "reconfig.plan_reload", "sim.rta",       "tenant.compose",
      "tenant.admit"};
  return name < kNameCount ? kNames[name] : "?";
}

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t reserve_uid() {
  ThreadBuffer& buffer = local_buffer();
  return (buffer.thread_index << 40) | ++buffer.next;
}

void record_with_uid(std::uint64_t uid, Name name, std::uint64_t id,
                     std::uint64_t parent, std::int64_t start_ns,
                     std::int64_t end_ns) {
  Span span;
  span.name = name;
  span.id = id;
  span.uid = uid;
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  local_buffer().spans.push_back(span);
}

std::uint64_t record(Name name, std::uint64_t id, std::uint64_t parent,
                     std::int64_t start_ns, std::int64_t end_ns) {
  const std::uint64_t uid = reserve_uid();
  record_with_uid(uid, name, id, parent, start_ns, end_ns);
  return uid;
}

std::vector<Span> collect() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<Span> all;
  for (const auto& buffer : reg.buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void clear() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buffer : reg.buffers) buffer->spans.clear();
}

bool write_csv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::vector<std::int64_t> self = self_times(spans);
  std::fprintf(file, "name,id,uid,parent,start_ns,end_ns,self_ns\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file, "%s,%llu,%llu,%llu,%lld,%lld,%lld\n", name_of(s.name),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.uid),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(file) == 0;
}

std::vector<NameTotals> totals_by_name(const std::vector<Span>& spans) {
  std::vector<NameTotals> totals(kNameCount);
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name >= kNameCount) continue;
    NameTotals& t = totals[s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += self[i];
    t.durations_us.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                             1000.0);
  }
  return totals;
}

}  // namespace perfbench::trace
