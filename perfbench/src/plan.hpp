// Workload plans: every input a benchmark run feeds the program, made
// from the workload name and the seed before any deployment exists.
// The deployment only executes a plan; it never sees the seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "airline/flight.hpp"
#include "core/types.hpp"
#include "sim/time.hpp"

namespace perfbench {

/// One reservation: reserve_once(flight, seats, pull_first).
struct OpPlan {
  flecc::airline::FlightNumber flight = 0;
  std::int64_t seats = 1;
  bool pull_first = false;
};

/// One view: a closed-loop client with one outstanding op at a time.
struct ViewPlan {
  std::size_t host = 0;
  flecc::core::Mode mode = flecc::core::Mode::kWeak;
  /// Simulated delay before the view issues its first op.
  flecc::sim::Duration start = 0;
  /// Push after every op (absorbed by the CM write buffer when on).
  bool push_each_op = false;
  std::vector<flecc::airline::FlightNumber> flights;
  std::vector<OpPlan> ops;
};

struct Plan {
  std::string workload;
  std::size_t hosts = 0;
  std::string validity_trigger;
  bool batch_fabric = false;
  std::size_t write_buffer_ops = 0;
  std::size_t flight_count = 0;
  /// One-way latency between a host and the others through the LAN
  /// switch, per host; the last entry is the directory's host. Pairs see
  /// the mean of their two hosts' values.
  std::vector<flecc::sim::Duration> host_latency;
  std::vector<ViewPlan> views;

  [[nodiscard]] std::size_t op_count() const;
  /// True when some view runs in STRONG mode.
  [[nodiscard]] bool has_strong() const;
};

/// Size overrides for small runs (tests); 0 keeps the workload's shape.
struct Scale {
  std::size_t views = 0;
  std::size_t ops_per_view = 0;
};

/// Builds the plan of `workload` (fleet_pull, hot_pull or write_mix) from
/// `seed`. Throws std::invalid_argument for an unknown workload.
[[nodiscard]] Plan make_plan(const std::string& workload, std::uint64_t seed,
                             Scale scale);

}  // namespace perfbench
