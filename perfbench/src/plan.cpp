#include "plan.hpp"

#include <stdexcept>

#include "airline/workload.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

using flecc::core::Mode;

/// The shape of one workload; the seed fills in everything else.
struct Shape {
  std::size_t views = 0;
  std::size_t group_size = 10;
  std::size_t views_per_host = 1;
  std::size_t ops_per_view = 0;
  bool batch_fabric = false;
  std::size_t write_buffer_ops = 0;
  /// Every fourth group runs STRONG; the others push after every op and
  /// pull before some.
  bool write_mix = false;
};

constexpr std::size_t kFlightsPerGroup = 5;
constexpr std::int64_t kMaxSeats = 4;
/// Host-to-host LAN latency: kLanLatency on average. Each agent host's
/// path to the switch is drawn within +-kLanSpread of it, so hosts do not
/// tick in lockstep; the directory's host sits at exactly kLanLatency.
constexpr flecc::sim::Duration kLanLatency = flecc::sim::usec(200);
constexpr flecc::sim::Duration kLanSpread = flecc::sim::usec(50);
/// Upper end of the per-view start stagger.
constexpr flecc::sim::Duration kMaxStagger = flecc::sim::msec(1);
/// In write_mix, a WEAK view pulls before an op with chance 1/kPullEvery.
constexpr std::size_t kPullEvery = 8;

Shape shape_of(const std::string& workload) {
  Shape s;
  if (workload == "fleet_pull") {
    s.views = 1000;
    s.ops_per_view = 3;
  } else if (workload == "hot_pull") {
    s.views = 100;
    s.group_size = 100;
    s.ops_per_view = 12;
  } else if (workload == "write_mix") {
    s.views = 200;
    s.views_per_host = 8;
    s.ops_per_view = 256;
    s.batch_fabric = true;
    s.write_buffer_ops = 4;
    s.write_mix = true;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return s;
}

}  // namespace

std::size_t Plan::op_count() const {
  std::size_t n = 0;
  for (const ViewPlan& v : views) n += v.ops.size();
  return n;
}

bool Plan::has_strong() const {
  for (const ViewPlan& v : views) {
    if (v.mode == Mode::kStrong) return true;
  }
  return false;
}

Plan make_plan(const std::string& workload, std::uint64_t seed, Scale scale) {
  Shape s = shape_of(workload);
  if (scale.views != 0) {
    s.views = scale.views;
    if (s.group_size > s.views) s.group_size = s.views;
  }
  if (scale.ops_per_view != 0) s.ops_per_view = scale.ops_per_view;

  const auto groups = flecc::airline::assign_flight_groups(
      s.views, s.group_size, kFlightsPerGroup);
  flecc::sim::Rng rng(seed);

  Plan plan;
  plan.workload = workload;
  plan.hosts = (s.views + s.views_per_host - 1) / s.views_per_host;
  plan.validity_trigger = "false";
  plan.batch_fabric = s.batch_fabric;
  plan.write_buffer_ops = s.write_buffer_ops;
  plan.flight_count = groups.flight_count;
  plan.host_latency.resize(plan.hosts);
  for (auto& lat : plan.host_latency) {
    lat = rng.uniform_int(kLanLatency - kLanSpread, kLanLatency + kLanSpread);
  }
  plan.host_latency.push_back(kLanLatency);  // the directory's host
  plan.views.resize(s.views);
  for (std::size_t i = 0; i < s.views; ++i) {
    ViewPlan& v = plan.views[i];
    v.host = i / s.views_per_host;
    v.flights = groups.agent_flights[i];
    v.start = rng.uniform_int(0, kMaxStagger - 1);
    v.mode = s.write_mix && groups.agent_group[i] % 4 == 3 ? Mode::kStrong
                                                           : Mode::kWeak;
    v.push_each_op = s.write_mix && v.mode == Mode::kWeak;
    v.ops.resize(s.ops_per_view);
    for (std::size_t k = 0; k < v.ops.size(); ++k) {
      OpPlan& op = v.ops[k];
      op.flight = v.flights[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(v.flights.size()) - 1))];
      op.seats = rng.uniform_int(1, kMaxSeats);
      op.pull_first = !s.write_mix || rng.chance(1.0 / kPullEvery);
    }
  }
  return plan;
}

}  // namespace perfbench
