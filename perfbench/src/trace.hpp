// In-memory span recorder of the traced run.
//
// Spans are recorded only from the benchmark's own code: around each call
// it makes into a library layer, inside its own producer and sink content
// classes, and in the forwarding channel wrapper (channel.hpp). Each
// thread appends to its own buffer, so recording takes no lock; buffers
// are merged and written out once, when the workload ends. While tracing
// is off a probe costs one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace perfbench::trace {

/// Span names (the `name` field of a Span indexes this list).
enum Name : std::uint16_t {
  kTx,             ///< prodline: one transaction (release + pump).
  kRelease,        ///< soleil: Application release_fn call.
  kPump,           ///< soleil: Application::pump.
  kProducer,       ///< producer content: one release (its burst of sends).
  kSink,           ///< sink content: one on_message.
  kChannelSend,    ///< comm: one frame written (send/send_spans/commit).
  kChannelRecv,    ///< comm: one receive call that returned a frame.
  kCommit,         ///< dist: coordinate_reload / reshard round trip.
  kSlice,          ///< dist: slice_architecture + compute_routes (replay).
  kEncode,         ///< dist: encode_plan + encode_delta (replay).
  kRules,          ///< validate: validate::validate.
  kTenancy,        ///< validate: validate_tenancy.
  kPlanReload,     ///< reconfig: plan_reload.
  kRta,            ///< sim: tasks_from_architecture + analyze.
  kCompose,        ///< tenant: merge_architectures.
  kAdmit,          ///< tenant: AdmissionController::admit.
  kNameCount
};

const char* name_of(std::uint16_t name);

/// Turns recording on or off (any thread).
void set_enabled(bool on);
/// True while recording.
inline bool enabled();

/// Monotonic nanoseconds (the steady clock every layer also uses).
std::int64_t now_ns();

/// Records one finished span; returns its uid.
std::uint64_t record(Name name, std::uint64_t id, std::uint64_t parent,
                     std::int64_t start_ns, std::int64_t end_ns);
/// A fresh uid for a span whose children are recorded before it ends.
std::uint64_t reserve_uid();
/// Records a span under a uid taken from reserve_uid().
void record_with_uid(std::uint64_t uid, Name name, std::uint64_t id,
                     std::uint64_t parent, std::int64_t start_ns,
                     std::int64_t end_ns);

/// Every span recorded so far, from every thread (call once the threads
/// that record have stopped).
std::vector<Span> collect();
/// Drops every recorded span (between workloads of one process).
void clear();

/// Writes `spans` as CSV (name,id,uid,parent,start_ns,end_ns,self_ns);
/// false when the file cannot be written.
bool write_csv(const std::string& path, const std::vector<Span>& spans);

/// Per-name totals over `spans`: count, summed duration and self time.
struct NameTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::vector<double> durations_us;
};
std::vector<NameTotals> totals_by_name(const std::vector<Span>& spans);

/// Times one scope as a span when tracing is on.
class Scope {
 public:
  Scope(Name name, std::uint64_t id)
      : on_(enabled()), name_(name), id_(id) {
    if (on_) start_ = now_ns();
  }
  ~Scope() {
    if (on_) record(name_, id_, 0, start_, now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool on_;
  Name name_;
  std::uint64_t id_;
  std::int64_t start_ = 0;
};

namespace detail {
extern std::atomic<bool> g_enabled;
}

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

}  // namespace perfbench::trace
