// A forwarding comm::Channel that counts frames and, while tracing is on,
// times every transport call. It overrides every virtual of
// comm::Channel — including send_spans and the reserve/commit/abort
// protocol — so the data plane takes exactly the path it takes over the
// bare transport.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "comm/channel.hpp"
#include "trace.hpp"

namespace perfbench {

class CountingChannel final : public rtcf::comm::Channel {
 public:
  static constexpr std::size_t kTypes = 32;

  explicit CountingChannel(std::shared_ptr<rtcf::comm::Channel> inner)
      : inner_(std::move(inner)) {}

  using rtcf::comm::Channel::send;

  bool send(const rtcf::comm::Frame& frame) override {
    const trace::Scope scope(trace::kChannelSend, 0);
    note_sent(frame.type, frame.payload.size());
    return inner_->send(frame);
  }
  bool send(rtcf::comm::Frame&& frame) override {
    const trace::Scope scope(trace::kChannelSend, 0);
    note_sent(frame.type, frame.payload.size());
    return inner_->send(std::move(frame));
  }
  bool send_spans(std::uint16_t type, const rtcf::comm::ByteSpan* spans,
                  std::size_t count) override {
    const trace::Scope scope(trace::kChannelSend, 0);
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < count; ++i) bytes += spans[i].size;
    note_sent(type, bytes);
    return inner_->send_spans(type, spans, count);
  }
  bool reserve_frame(std::uint16_t type, std::size_t payload_size,
                     rtcf::comm::FrameReservation& out) override {
    const bool ok = inner_->reserve_frame(type, payload_size, out);
    if (ok) reserved_type_ = type;
    return ok;
  }
  bool commit_frame(std::size_t used) override {
    const trace::Scope scope(trace::kChannelSend, 0);
    note_sent(reserved_type_, used);
    return inner_->commit_frame(used);
  }
  void abort_frame() override { inner_->abort_frame(); }

  bool receive(rtcf::comm::Frame& frame,
               rtcf::rtsj::RelativeTime timeout) override {
    const bool on = trace::enabled();
    const std::int64_t start = on ? trace::now_ns() : 0;
    const bool got = inner_->receive(frame, timeout);
    recv_calls_.fetch_add(1, std::memory_order_relaxed);
    if (!got) return false;
    if (on) trace::record(trace::kChannelRecv, 0, 0, start, trace::now_ns());
    received_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  void close() override { inner_->close(); }
  bool open() const override { return inner_->open(); }

  std::uint64_t frames_sent() const { return load(sent_); }
  std::uint64_t bytes_sent() const { return load(bytes_); }
  std::uint64_t frames_received() const { return load(received_); }
  std::uint64_t receive_calls() const { return load(recv_calls_); }
  std::uint64_t sent_of_type(std::uint16_t type) const {
    return type < kTypes ? load(sent_by_type_[type]) : 0;
  }

 private:
  static std::uint64_t load(const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  }
  void note_sent(std::uint16_t type, std::size_t bytes) {
    sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    if (type < kTypes) {
      sent_by_type_[type].fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::shared_ptr<rtcf::comm::Channel> inner_;
  std::uint16_t reserved_type_ = 0;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> recv_calls_{0};
  std::array<std::atomic<std::uint64_t>, kTypes> sent_by_type_{};
};

}  // namespace perfbench
