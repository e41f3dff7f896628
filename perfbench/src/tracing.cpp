#include "tracing.hpp"

#include <utility>

namespace perfbench {

namespace net = flecc::net;

const char* to_string(Layer l) noexcept {
  switch (l) {
    case Layer::kSimRun: return "sim.run";
    case Layer::kSimSchedule: return "sim.schedule";
    case Layer::kSimCancel: return "sim.cancel";
    case Layer::kNetSend: return "net.send";
    case Layer::kCmHandle: return "cm.handle";
    case Layer::kCmTimer: return "cm.timer";
    case Layer::kDmHandle: return "dm.handle";
    case Layer::kDmTimer: return "dm.timer";
    case Layer::kAdapterMerge: return "adapter.merge";
    case Layer::kAdapterExtract: return "adapter.extract";
    case Layer::kCount: break;
  }
  return "?";
}

// ---- SpanRecorder -----------------------------------------------------------

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {
  types_.emplace_back();
  type_ids_.emplace("", 0);
}

std::uint16_t SpanRecorder::type_id(const std::string& type) {
  auto it = type_ids_.find(type);
  if (it != type_ids_.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(types_.size());
  types_.push_back(type);
  type_ids_.emplace(type, id);
  return id;
}

void SpanRecorder::begin(Layer layer, std::uint16_t type, std::uint32_t view) {
  Span s;
  s.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back().index);
  s.view = view;
  s.op = ops_ != nullptr && view < ops_->size() ? (*ops_)[view] : 0;
  s.type = type;
  s.layer = layer;
  s.phase = phase_;
  stack_.push_back(Open{spans_.size(), 0});
  spans_.push_back(s);
  // Stamp last, so the span's own bookkeeping stays outside it.
  spans_.back().start_ns = now_ns();
}

void SpanRecorder::end() {
  const std::int64_t t = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  Span& s = spans_[open.index];
  s.end_ns = t;
  const std::int64_t dur = t - s.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  SpanTotals& tot = totals_[key(s.phase, s.layer, s.type)];
  ++tot.count;
  tot.self_ns += dur - open.child_ns;
  tot.total_ns += dur;
}

const SpanTotals& SpanRecorder::totals(Phase p, Layer l,
                                       std::uint16_t type) const {
  static const SpanTotals kEmpty{};
  auto it = totals_.find(key(p, l, type));
  return it == totals_.end() ? kEmpty : it->second;
}

SpanTotals SpanRecorder::type_totals(Phase p, Layer l,
                                     const std::string& type) const {
  auto it = type_ids_.find(type);
  return it == type_ids_.end() ? SpanTotals{} : totals(p, l, it->second);
}

SpanTotals SpanRecorder::layer_totals(Phase p, Layer l) const {
  SpanTotals out;
  for (std::size_t t = 0; t < types_.size(); ++t) {
    const SpanTotals& x = totals(p, l, static_cast<std::uint16_t>(t));
    out.count += x.count;
    out.self_ns += x.self_ns;
    out.total_ns += x.total_ns;
  }
  return out;
}

// ---- TracingFabric ----------------------------------------------------------

class TracingFabric::Wrapped : public net::Endpoint {
 public:
  Wrapped(TracingFabric& owner, net::Endpoint& inner, net::Address self,
          Layer layer)
      : owner_(owner), inner_(inner), self_(self), layer_(layer) {}

  void on_message(const net::Message& m) override {
    SpanScope span(owner_.rec_, layer_, owner_.rec_.type_id(m.type),
                   owner_.view_for(self_, m.from));
    inner_.on_message(m);
  }

 private:
  TracingFabric& owner_;
  net::Endpoint& inner_;
  net::Address self_;
  Layer layer_;
};

TracingFabric::TracingFabric(net::Fabric& inner, SpanRecorder& rec,
                             net::Address dm, ViewOf view_of)
    : inner_(inner),
      rec_(rec),
      dm_(dm),
      view_of_(std::move(view_of)),
      cm_role_(rec.type_id("cm")),
      dm_role_(rec.type_id("dm")) {}

TracingFabric::~TracingFabric() = default;

std::uint32_t TracingFabric::view_for(const net::Address& self,
                                      const net::Address& from) const {
  return self == dm_ ? view_of_(from) : view_of_(self);
}

void TracingFabric::bind(const net::Address& addr, net::Endpoint& ep) {
  const Layer layer = addr == dm_ ? Layer::kDmHandle : Layer::kCmHandle;
  auto w = std::make_unique<Wrapped>(*this, ep, addr, layer);
  inner_.bind(addr, *w);
  wrapped_[addr] = std::move(w);
}

void TracingFabric::unbind(const net::Address& addr) {
  inner_.unbind(addr);
  wrapped_.erase(addr);
}

void TracingFabric::send(net::Address from, net::Address to, std::string type,
                         std::any payload, std::size_t bytes) {
  SpanScope span(rec_, Layer::kNetSend, rec_.type_id(type),
                 view_for(from, to));
  inner_.send(from, to, std::move(type), std::move(payload), bytes);
}

net::TimerId TracingFabric::schedule(const net::Address& owner,
                                     flecc::sim::Duration delay,
                                     std::function<void()> fn) {
  return schedule_impl(owner, delay, std::move(fn), /*daemon=*/false);
}

net::TimerId TracingFabric::schedule_daemon(const net::Address& owner,
                                            flecc::sim::Duration delay,
                                            std::function<void()> fn) {
  return schedule_impl(owner, delay, std::move(fn), /*daemon=*/true);
}

net::TimerId TracingFabric::schedule_impl(const net::Address& owner,
                                          flecc::sim::Duration delay,
                                          std::function<void()> fn,
                                          bool daemon) {
  const bool dm = owner == dm_;
  const Layer layer = dm ? Layer::kDmTimer : Layer::kCmTimer;
  const std::uint16_t role = dm ? dm_role_ : cm_role_;
  const std::uint32_t view = view_of_(owner);
  SpanScope span(rec_, Layer::kSimSchedule, role, view);
  auto wrapped = [this, layer, view, fn = std::move(fn)] {
    SpanScope timer(rec_, layer, 0, view);
    fn();
  };
  const net::TimerId id =
      daemon ? inner_.schedule_daemon(owner, delay, std::move(wrapped))
             : inner_.schedule(owner, delay, std::move(wrapped));
  timer_role_[id] = role;
  return id;
}

bool TracingFabric::cancel_timer(net::TimerId id) {
  std::uint16_t role = 0;
  if (auto it = timer_role_.find(id); it != timer_role_.end()) {
    role = it->second;
    timer_role_.erase(it);
  }
  SpanScope span(rec_, Layer::kSimCancel, role);
  return inner_.cancel_timer(id);
}

// ---- TimingAdapter ----------------------------------------------------------

flecc::core::ObjectImage TimingAdapter::extract_from_object(
    const flecc::props::PropertySet& vpl) const {
  SpanScope span(rec_, Layer::kAdapterExtract);
  return inner_.extract_from_object(vpl);
}

void TimingAdapter::merge_into_object(const flecc::core::ObjectImage& image,
                                      const flecc::props::PropertySet& vpl) {
  SpanScope span(rec_, Layer::kAdapterMerge);
  inner_.merge_into_object(image, vpl);
}

}  // namespace perfbench
