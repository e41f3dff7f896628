// One episode of a workload: deploy a Flecc system from public
// constructors (the airline::FleccTestbed wiring), register and init
// every view, run the plan's closed loop, tear down, and report what
// happened. An episode is deterministic given its plan; host times are
// the only outputs that vary between two episodes of one plan.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "plan.hpp"

namespace flecc::obs {
class TraceRecorder;
}  // namespace flecc::obs

namespace perfbench {

class SpanRecorder;

/// Optional instruments; none perturbs the simulated run.
struct Instruments {
  /// Per-layer spans (the traced run).
  SpanRecorder* spans = nullptr;
  /// Protocol-event recorder with its sinks attached (the obs variant).
  flecc::obs::TraceRecorder* obs = nullptr;
};

/// Outputs that must not depend on instrumentation or host speed.
struct Fingerprint {
  std::uint64_t ops_completed = 0;
  std::uint64_t logical_msgs = 0;
  std::uint64_t hops = 0;
  std::uint64_t events = 0;
  std::vector<double> latencies_us;
  std::map<std::int64_t, std::int64_t> reserved_by_flight;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Counter deltas over the measured phase, summed per layer.
struct PhaseCounters {
  std::uint64_t events = 0;
  std::uint64_t logical_msgs = 0;
  std::uint64_t hops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t batch_coalesced = 0;
  std::uint64_t dropped = 0;
  std::uint64_t allocs = 0;
  std::uint64_t dm_fetch_rounds = 0;
  std::uint64_t dm_merges = 0;
  std::uint64_t cm_retransmits = 0;
  std::uint64_t cm_wbuf_absorbed = 0;
};

/// Directory introspection timed once per view after the measured
/// phase (traced runs only).
struct DirectoryProbe {
  double conflicting_views_us = 0.0;
  double quality_us = 0.0;
  std::uint64_t merge_log_len = 0;
};

struct Episode {
  Fingerprint fp;
  /// Op latencies without each view's first op, which runs in the start
  /// burst while every other view's first op is in flight too.
  std::vector<double> steady_latencies_us;
  PhaseCounters measured;
  DirectoryProbe probe;
  std::uint64_t ops_attempted = 0;
  std::uint64_t exhausted = 0;
  std::uint64_t nacked = 0;
  /// Correctness gate inputs.
  std::int64_t db_reserved = 0;
  std::int64_t confirmed_sum = 0;
  std::int64_t expected_seats = 0;
  /// Host seconds.
  double setup_s = 0.0;
  double measure_s = 0.0;
  /// measure_s cut into kMeasureSlices consecutive slices at fixed counts
  /// of completed ops (the last slice runs on to quiescence). The plan
  /// fixes the cuts, so slice k holds the same simulated work in every
  /// episode of one plan.
  std::vector<double> slice_s;
  /// Failed gate checks, human readable (empty = correct).
  std::vector<std::string> errors;
};

/// Slices an episode's measured phase is timed in (see Episode::slice_s).
inline constexpr std::size_t kMeasureSlices = 1024;

/// Runs one episode of `plan`. `tally_offset` is added to the expected
/// seat tally (0 in real runs; tests use it to prove the gate trips).
[[nodiscard]] Episode run_episode(const Plan& plan, const Instruments& inst,
                                  std::int64_t tally_offset = 0);

}  // namespace perfbench
