#include "deployment.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "airline/flight_database.hpp"
#include "airline/travel_agent.hpp"
#include "alloc_count.hpp"
#include "core/directory_manager.hpp"
#include "net/batch_fabric.hpp"
#include "net/sim_fabric.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "tracing.hpp"

namespace perfbench {

namespace {

namespace airline = flecc::airline;
namespace core = flecc::core;
namespace net = flecc::net;
namespace sim = flecc::sim;

using Clock = std::chrono::steady_clock;

constexpr net::PortId kDirectoryPort = 1;
constexpr std::int64_t kCapacity = std::int64_t{1} << 40;
// obs ring sizes: the monitor consumes every event as a sink, so the
// rings only keep a recent tail.
constexpr std::size_t kObsAgentRing = 64;
constexpr std::size_t kObsDirectoryRing = 4096;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Fabric counters folded into the quantities the metrics use.
struct FabricTally {
  std::uint64_t logical = 0;
  std::uint64_t hops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t dropped = 0;

  explicit FabricTally(const sim::CounterSet& c) {
    for (const auto& [name, value] : c.all()) {
      if (name == "msg.delivered") {
        hops = value;
      } else if (starts_with(name, "msg.delivered.") &&
                 name != std::string("msg.delivered.") + net::kBatchFrame) {
        logical += value;
      } else if (starts_with(name, "msg.dropped.") ||
                 name == "batch.sub.unbound") {
        dropped += value;
      }
    }
    bytes = c.get("bytes.sent");
    coalesced = c.get("batch.coalesced");
  }
};

/// Sum of one counter over every cache manager.
std::uint64_t cm_total(
    const std::vector<std::unique_ptr<airline::TravelAgent>>& agents,
    const std::string& name) {
  std::uint64_t n = 0;
  for (const auto& a : agents) n += a->cache().stats().get(name);
  return n;
}

class Deployment {
 public:
  Deployment(const Plan& plan, const Instruments& inst)
      : plan_(plan),
        op_count_(plan.op_count()),
        spans_(inst.spans),
        op_index_(plan.views.size(), 0) {
    // The agents' hosts plus one for the database and its directory
    // manager, around one switch; each host link carries half of the
    // host's planned latency.
    std::vector<net::NodeId> hosts;
    net::Topology lan = net::Topology::lan(plan.hosts + 1, {}, &hosts);
    for (net::LinkId id = 0; id < lan.link_count(); ++id) {
      const net::NodeId host = lan.link_ends(id).first;
      const auto h = static_cast<std::size_t>(
          std::find(hosts.begin(), hosts.end(), host) - hosts.begin());
      lan.set_link_latency(id, plan.host_latency.at(h) / 2);
    }
    fabric_ = std::make_unique<net::SimFabric>(sim_, std::move(lan));
    dm_addr_ = net::Address{hosts.back(), kDirectoryPort};
    std::vector<net::PortId> next_port(plan.hosts, 1);
    addrs_.reserve(plan.views.size());
    for (std::size_t v = 0; v < plan.views.size(); ++v) {
      const std::size_t h = plan.views[v].host;
      addrs_.push_back(net::Address{hosts.at(h), next_port[h]++});
      view_of_.emplace(addrs_.back(), static_cast<std::uint32_t>(v));
    }

    proto_ = fabric_.get();
    const auto view_of = [this](const net::Address& a) {
      auto it = view_of_.find(a);
      return it == view_of_.end() ? kNoView : it->second;
    };
    if (spans_ != nullptr) spans_->set_op_indices(&op_index_);
    if (plan.batch_fabric) {
      batch_ = std::make_unique<net::BatchFabric>(*proto_,
                                                  net::BatchFabric::Config{});
      proto_ = batch_.get();
    }
    if (spans_ != nullptr) {
      traced_ = std::make_unique<TracingFabric>(*proto_, *spans_, dm_addr_,
                                                view_of);
      proto_ = traced_.get();
    }

    db_ = airline::FlightDatabase::uniform(100, plan.flight_count, kCapacity);
    db_adapter_ = std::make_unique<airline::FlightDatabaseAdapter>(db_);
    core::PrimaryAdapter* primary = db_adapter_.get();
    if (spans_ != nullptr) {
      timed_adapter_ = std::make_unique<TimingAdapter>(*primary, *spans_);
      primary = timed_adapter_.get();
    }

    core::DirectoryManager::Config dir_cfg;
    if (inst.obs != nullptr) {
      fabric_->set_trace_buffer(inst.obs->make_buffer("fabric"));
      dir_cfg.trace = inst.obs->make_buffer("dm", kObsDirectoryRing);
    }
    dm_ = std::make_unique<core::DirectoryManager>(*proto_, dm_addr_, *primary,
                                                   dir_cfg);
    agents_.reserve(plan.views.size());
    for (std::size_t v = 0; v < plan.views.size(); ++v) {
      const ViewPlan& vp = plan.views[v];
      airline::TravelAgent::Config cfg;
      cfg.flights = vp.flights;
      cfg.mode = vp.mode;
      cfg.validity_trigger = plan.validity_trigger;
      cfg.write_buffer_ops = plan.write_buffer_ops;
      if (inst.obs != nullptr) {
        cfg.trace = inst.obs->make_buffer("cm." + std::to_string(v),
                                          kObsAgentRing);
      }
      agents_.push_back(std::make_unique<airline::TravelAgent>(
          *proto_, addrs_[v], dm_addr_, std::move(cfg)));
    }
  }

  ~Deployment() {
    // The recorder outlives the deployment; leave it no pointer into it.
    if (spans_ != nullptr) spans_->set_op_indices(nullptr);
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  Episode run(std::int64_t tally_offset) {
    Episode ep;
    const auto t0 = Clock::now();
    for (auto& a : agents_) a->init();
    run_sim();
    ep.setup_s = seconds_since(t0);
    for (std::size_t v = 0; v < agents_.size(); ++v) {
      if (!agents_[v]->cache().registered()) {
        ep.errors.push_back("view " + std::to_string(v) +
                            " did not register");
      }
    }

    // ---- measured phase: the closed loop --------------------------------
    const FabricTally before(fabric_->counters());
    const std::uint64_t events0 = sim_.executed_events();
    const LayerCounts layers0 = layer_counts();
    const std::uint64_t allocs0 = allocation_count();
    // The start stagger is a client timer at the view's own address. It
    // is armed before the phase begins, so every measured span nests in
    // Simulator::run.
    for (std::size_t v = 0; v < agents_.size(); ++v) {
      proto_->schedule(addrs_[v], plan_.views[v].start, [this, v] { issue(v); });
    }
    set_phase(Phase::kMeasure);
    const auto t1 = Clock::now();
    slices_ = &ep.slice_s;
    slice_start_ = t1;
    run_sim();
    ep.measure_s = seconds_since(t1);
    ep.slice_s.push_back(seconds_since(slice_start_));
    slices_ = nullptr;
    const std::uint64_t allocs1 = allocation_count();
    const FabricTally after(fabric_->counters());

    PhaseCounters& m = ep.measured;
    m.events = sim_.executed_events() - events0;
    m.allocs = allocs1 - allocs0;
    m.logical_msgs = after.logical - before.logical;
    m.hops = after.hops - before.hops;
    m.bytes = after.bytes - before.bytes;
    m.batch_coalesced = after.coalesced - before.coalesced;
    m.dropped = after.dropped - before.dropped;
    const LayerCounts layers1 = layer_counts();
    m.dm_fetch_rounds = layers1.dm_fetch_rounds - layers0.dm_fetch_rounds;
    m.dm_merges = layers1.dm_merges - layers0.dm_merges;
    m.cm_retransmits = layers1.cm_retransmits - layers0.cm_retransmits;
    m.cm_wbuf_absorbed = layers1.cm_wbuf_absorbed - layers0.cm_wbuf_absorbed;
    if (spans_ != nullptr) ep.probe = probe_directory();

    ep.ops_attempted = attempted_;
    ep.fp.ops_completed = 0;
    for (const auto& a : agents_) {
      ep.fp.ops_completed += a->ops_completed();
      const auto& s = a->op_latencies().samples();
      ep.fp.latencies_us.insert(ep.fp.latencies_us.end(), s.begin(), s.end());
      if (!s.empty()) {
        ep.steady_latencies_us.insert(ep.steady_latencies_us.end(),
                                      s.begin() + 1, s.end());
      }
    }
    ep.exhausted = cm_total(agents_, "reliability.exhausted");
    ep.nacked = cm_total(agents_, "op.nack");

    // ---- teardown: kill every image so buffered writes reach the DB -----
    set_phase(Phase::kTeardown);
    for (auto& a : agents_) a->shutdown();
    run_sim();

    const FabricTally total(fabric_->counters());
    ep.fp.logical_msgs = total.logical;
    ep.fp.hops = total.hops;
    ep.fp.events = sim_.executed_events();
    for (const auto& [number, flight] : db_) {
      ep.fp.reserved_by_flight[number] = flight.reserved;
    }
    ep.db_reserved = db_.total_reserved();
    for (const auto& a : agents_) ep.confirmed_sum += a->view().confirmed_total();
    ep.expected_seats = completed_seats_ + tally_offset;
    check(ep, total.dropped);
    return ep;
  }

 private:
  void set_phase(Phase p) {
    if (spans_ != nullptr) spans_->set_phase(p);
  }

  void run_sim() {
    if (spans_ == nullptr) {
      sim_.run();
      return;
    }
    SpanScope span(*spans_, Layer::kSimRun);
    sim_.run();
  }

  struct LayerCounts {
    std::uint64_t dm_fetch_rounds = 0;
    std::uint64_t dm_merges = 0;
    std::uint64_t cm_retransmits = 0;
    std::uint64_t cm_wbuf_absorbed = 0;
  };
  [[nodiscard]] LayerCounts layer_counts() const {
    return LayerCounts{dm_->stats().get("op.pull.fetch_round"),
                       dm_->stats().get("merge.count"),
                       cm_total(agents_, "op.retry"),
                       cm_total(agents_, "wbuf.absorbed")};
  }

  /// Issue view v's next op; the one after follows from its completion.
  void issue(std::size_t v) {
    const ViewPlan& vp = plan_.views[v];
    const OpPlan& op = vp.ops[op_index_[v]];
    ++attempted_;
    agents_[v]->reserve_once(op.flight, op.seats, op.pull_first,
                             [this, v, seats = op.seats] {
      completed_seats_ += seats;
      ++op_index_[v];
      cut_slices();
      if (plan_.views[v].push_each_op) {
        agents_[v]->push_now([this, v] { next(v); });
      } else {
        next(v);
      }
    });
  }

  /// Closes every measured slice whose cut the op just completed reaches.
  void cut_slices() {
    ++completed_ops_;
    if (slices_ == nullptr) return;
    while (slices_->size() + 1 < kMeasureSlices &&
           completed_ops_ * kMeasureSlices >=
               (slices_->size() + 1) * op_count_) {
      const auto now = Clock::now();
      slices_->push_back(
          std::chrono::duration<double>(now - slice_start_).count());
      slice_start_ = now;
    }
  }

  void next(std::size_t v) {
    if (op_index_[v] < plan_.views[v].ops.size()) issue(v);
  }

  DirectoryProbe probe_directory() const {
    DirectoryProbe p;
    double cv_s = 0.0;
    double q_s = 0.0;
    for (const auto& a : agents_) {
      const core::ViewId id = a->cache().id();
      auto t = Clock::now();
      (void)dm_->conflicting_views(id);
      cv_s += seconds_since(t);
      t = Clock::now();
      (void)dm_->quality(id);
      q_s += seconds_since(t);
    }
    const double views = static_cast<double>(agents_.size());
    p.conflicting_views_us = cv_s * 1e6 / views;
    p.quality_us = q_s * 1e6 / views;
    p.merge_log_len = dm_->merge_log().size();
    return p;
  }

  void check(Episode& ep, std::uint64_t dropped) const {
    auto& e = ep.errors;
    if (ep.fp.ops_completed != ep.ops_attempted ||
        ep.ops_attempted != plan_.op_count()) {
      e.push_back("ops: planned " + std::to_string(plan_.op_count()) +
                  ", issued " + std::to_string(ep.ops_attempted) +
                  ", completed " + std::to_string(ep.fp.ops_completed));
    }
    if (dropped != 0) {
      e.push_back("fabric dropped " + std::to_string(dropped) + " messages");
    }
    if (ep.exhausted != 0 || ep.nacked != 0) {
      e.push_back("ops exhausted " + std::to_string(ep.exhausted) +
                  ", nacked " + std::to_string(ep.nacked));
    }
    if (ep.db_reserved != ep.confirmed_sum ||
        ep.confirmed_sum != ep.expected_seats) {
      e.push_back("seat tally: database " + std::to_string(ep.db_reserved) +
                  ", views confirmed " + std::to_string(ep.confirmed_sum) +
                  ", expected " + std::to_string(ep.expected_seats));
    }
  }

  const Plan& plan_;
  const std::size_t op_count_;
  SpanRecorder* spans_;
  std::vector<std::uint32_t> op_index_;
  std::vector<net::Address> addrs_;
  std::unordered_map<net::Address, std::uint32_t, net::AddressHash> view_of_;
  net::Address dm_addr_{};
  /// The fabric the protocol components are bound through.
  net::Fabric* proto_ = nullptr;
  std::uint64_t attempted_ = 0;
  std::int64_t completed_seats_ = 0;
  std::size_t completed_ops_ = 0;
  /// The measured phase's slices while it runs, else null.
  std::vector<double>* slices_ = nullptr;
  Clock::time_point slice_start_;

  // Declaration order is teardown order in reverse: every fabric layer
  // outlives the endpoints bound through it.
  sim::Simulator sim_;
  std::unique_ptr<net::SimFabric> fabric_;
  std::unique_ptr<net::BatchFabric> batch_;
  std::unique_ptr<TracingFabric> traced_;
  airline::FlightDatabase db_;
  std::unique_ptr<airline::FlightDatabaseAdapter> db_adapter_;
  std::unique_ptr<TimingAdapter> timed_adapter_;
  std::unique_ptr<core::DirectoryManager> dm_;
  std::vector<std::unique_ptr<airline::TravelAgent>> agents_;
};

}  // namespace

Episode run_episode(const Plan& plan, const Instruments& inst,
                    std::int64_t tally_offset) {
  // Deployment set-up (construction included) counts toward setup_s.
  const auto t0 = Clock::now();
  Deployment d(plan, inst);
  const double construct_s = seconds_since(t0);
  Episode ep = d.run(tally_offset);
  ep.setup_s += construct_s;
  return ep;
}

}  // namespace perfbench
