// Benchmark-owned spans around the layers' public interfaces.
//
// Nothing here reaches into the library: a net::Fabric decorator wraps
// every endpoint at bind() and every timer callback at schedule(), and
// times send/schedule/cancel_timer; a PrimaryAdapter decorator times
// the database adapter; the harness times Simulator::run. Spans nest
// on one stack (the simulation is single-threaded), so a span's self
// time is its duration minus the durations of its direct children.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/adapters.hpp"
#include "net/fabric.hpp"

namespace perfbench {

/// Where a span's host time is spent.
enum class Layer : std::uint8_t {
  kSimRun,         ///< Simulator::run (root of every protocol span)
  kSimSchedule,    ///< Fabric::schedule / schedule_daemon call (type: owner role)
  kSimCancel,      ///< Fabric::cancel_timer call (type: owner role)
  kNetSend,        ///< Fabric::send of a logical message
  kCmHandle,       ///< cache-manager on_message
  kCmTimer,        ///< cache-manager timer callback
  kDmHandle,       ///< directory-manager on_message
  kDmTimer,        ///< directory-manager timer callback
  kAdapterMerge,   ///< PrimaryAdapter::merge_into_object
  kAdapterExtract, ///< PrimaryAdapter::extract_from_object
  kCount,
};

[[nodiscard]] const char* to_string(Layer l) noexcept;

/// Episode phase a span falls in.
enum class Phase : std::uint8_t { kSetup, kMeasure, kTeardown };

inline constexpr std::uint32_t kNoView = 0xffffffffu;

/// One recorded span. Times are host nanoseconds since the recorder
/// was created; `parent` indexes spans() (-1 for a root).
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t view = kNoView;  ///< op id = (view, op)
  std::uint32_t op = 0;
  std::uint16_t type = 0;        ///< index into SpanRecorder::types()
  Layer layer = Layer::kSimRun;
  Phase phase = Phase::kSetup;
};

/// Per (phase, layer, message type) totals.
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  void set_phase(Phase p) noexcept { phase_ = p; }

  /// Op counters the harness advances; spans read the current op of
  /// their view from here.
  void set_op_indices(const std::vector<std::uint32_t>* ops) noexcept {
    ops_ = ops;
  }

  /// Interned message-type id ("" is id 0).
  [[nodiscard]] std::uint16_t type_id(const std::string& type);
  [[nodiscard]] const std::vector<std::string>& types() const noexcept {
    return types_;
  }
  /// Totals of one layer for one message type or timer role (all zero
  /// when the type never occurred).
  [[nodiscard]] SpanTotals type_totals(Phase p, Layer l,
                                       const std::string& type) const;

  void begin(Layer layer, std::uint16_t type, std::uint32_t view);
  void end();

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Totals of a layer over every message type.
  [[nodiscard]] SpanTotals layer_totals(Phase p, Layer l) const;

 private:
  struct Open {
    std::size_t index;
    std::int64_t child_ns;
  };
  using Key = std::uint32_t;
  [[nodiscard]] const SpanTotals& totals(Phase p, Layer l,
                                         std::uint16_t type) const;
  [[nodiscard]] static Key key(Phase p, Layer l, std::uint16_t type) {
    return (static_cast<Key>(p) << 24) | (static_cast<Key>(l) << 16) | type;
  }
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  Phase phase_ = Phase::kSetup;
  const std::vector<std::uint32_t>* ops_ = nullptr;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::unordered_map<std::string, std::uint16_t> type_ids_;
  std::vector<std::string> types_;
  std::unordered_map<Key, SpanTotals> totals_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, Layer layer, std::uint16_t type = 0,
            std::uint32_t view = kNoView)
      : rec_(rec) {
    rec_.begin(layer, type, view);
  }
  ~SpanScope() { rec_.end(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& rec_;
};

/// Timing decorator over the protocol fabric: wraps every endpoint and
/// timer as a CM or DM span and times send/schedule/cancel_timer. Under
/// it, a BatchFabric's own work (frame sends, fan-out, flush timers)
/// falls into the net.send span that buffered it or into sim.dispatch.
class TracingFabric : public flecc::net::Fabric {
 public:
  /// Maps an address to its view index, or kNoView.
  using ViewOf = std::function<std::uint32_t(const flecc::net::Address&)>;

  TracingFabric(flecc::net::Fabric& inner, SpanRecorder& rec,
                flecc::net::Address dm, ViewOf view_of);
  ~TracingFabric() override;
  TracingFabric(const TracingFabric&) = delete;
  TracingFabric& operator=(const TracingFabric&) = delete;

  [[nodiscard]] flecc::sim::Time now() const override { return inner_.now(); }
  void bind(const flecc::net::Address& addr,
            flecc::net::Endpoint& ep) override;
  void unbind(const flecc::net::Address& addr) override;
  void send(flecc::net::Address from, flecc::net::Address to,
            std::string type, std::any payload, std::size_t bytes) override;
  flecc::net::TimerId schedule(const flecc::net::Address& owner,
                               flecc::sim::Duration delay,
                               std::function<void()> fn) override;
  flecc::net::TimerId schedule_daemon(const flecc::net::Address& owner,
                                      flecc::sim::Duration delay,
                                      std::function<void()> fn) override;
  bool cancel_timer(flecc::net::TimerId id) override;
  void set_clock(const flecc::net::Address& addr,
                 flecc::obs::CausalClock* clock) override {
    inner_.set_clock(addr, clock);
  }
  [[nodiscard]] flecc::sim::CounterSet& counters() override {
    return inner_.counters();
  }
  [[nodiscard]] const flecc::sim::CounterSet& counters() const override {
    return inner_.counters();
  }

 private:
  class Wrapped;
  /// schedule()/schedule_daemon(): wraps `fn` in a timer span.
  flecc::net::TimerId schedule_impl(const flecc::net::Address& owner,
                                    flecc::sim::Duration delay,
                                    std::function<void()> fn, bool daemon);
  /// View a message span is attributed to: the CM endpoint involved.
  [[nodiscard]] std::uint32_t view_for(const flecc::net::Address& self,
                                       const flecc::net::Address& from) const;

  flecc::net::Fabric& inner_;
  SpanRecorder& rec_;
  flecc::net::Address dm_;
  ViewOf view_of_;
  /// Interned owner roles, the type of sim.schedule/sim.cancel spans.
  std::uint16_t cm_role_;
  std::uint16_t dm_role_;
  std::unordered_map<flecc::net::Address, std::unique_ptr<Wrapped>,
                     flecc::net::AddressHash>
      wrapped_;
  /// Owner role of each timer scheduled here, until it is cancelled
  /// (entries of the few that fire stay until the episode ends).
  std::unordered_map<flecc::net::TimerId, std::uint16_t> timer_role_;
};

/// Timing decorator over the primary (database) adapter.
class TimingAdapter : public flecc::core::PrimaryAdapter {
 public:
  TimingAdapter(flecc::core::PrimaryAdapter& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  [[nodiscard]] flecc::core::ObjectImage extract_from_object(
      const flecc::props::PropertySet& vpl) const override;
  void merge_into_object(const flecc::core::ObjectImage& image,
                         const flecc::props::PropertySet& vpl) override;
  [[nodiscard]] const flecc::trigger::Env* variables() const override {
    return inner_.variables();
  }
  [[nodiscard]] flecc::props::PropertySet data_properties() const override {
    return inner_.data_properties();
  }

 private:
  flecc::core::PrimaryAdapter& inner_;
  SpanRecorder& rec_;
};

}  // namespace perfbench
