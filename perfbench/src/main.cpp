// flecc_perfbench: runs one benchmark workload for a fixed host-time
// budget and prints its metrics.
//
//   flecc_perfbench --workload fleet_pull --seed 7 --seconds 10 --trace 0
//
// --trace 0 repeats untraced episodes and prints the end-to-end
// metrics; --trace 1 repeats rounds of (untraced, traced, obs-monitored)
// episodes and prints the per-layer table. Each episode deploys a fresh
// system, so set-up is measured as often as the closed loop. The last
// line of standard output is one JSON object; the exit code is nonzero
// when any correctness check fails. See perfbench/README.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "deployment.hpp"
#include "obs/monitor/invariant_monitor.hpp"
#include "obs/trace.hpp"
#include "plan.hpp"
#include "tracing.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Episodes an untraced run makes even when --seconds is already spent.
constexpr std::size_t kMinEpisodes = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale;
  std::int64_t tally_offset = 0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "flecc_perfbench: %s\n"
               "usage: flecc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "       [--views N] [--ops N] [--tally-offset N]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    const auto num = [&] {
      const unsigned long long n = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage(("bad number for " + flag).c_str());
      return n;
    };
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = num();
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(num());
    } else if (flag == "--trace") {
      a.trace = num() != 0;
    } else if (flag == "--views") {
      a.scale.views = num();
    } else if (flag == "--ops") {
      a.scale.ops_per_view = num();
    } else if (flag == "--tally-offset") {
      a.tally_offset = static_cast<std::int64_t>(num());
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Exact quantile by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The CPUs this process may run on (empty if they cannot be read).
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

struct Metric {
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

double ops_per_s(const Episode& ep) {
  return per(static_cast<double>(ep.fp.ops_completed), ep.measure_s);
}

/// Host seconds of the measured phase when nothing else slows the host:
/// each slice's fastest time over the episodes, summed. Every episode
/// repeats the same simulated work slice by slice, and interference on a
/// shared host only ever adds time, in bursts shorter than an episode
/// but longer than a slice; so each slice's minimum is the program's own
/// cost, and their sum barely moves with how busy the host was.
double quiet_measure_s(const std::vector<Episode>& eps) {
  std::vector<double> fastest = eps.front().slice_s;
  for (const Episode& ep : eps) {
    for (std::size_t k = 0; k < fastest.size() && k < ep.slice_s.size(); ++k) {
      fastest[k] = std::min(fastest[k], ep.slice_s[k]);
    }
  }
  double sum = 0.0;
  for (const double x : fastest) sum += x;
  return sum;
}

/// Prints the JSON result line. Values keep every digit (%.17g).
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), m.value, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

/// Tracks gate results across every episode of a run.
struct Gate {
  bool ok = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const char* what, const Episode& ep) {
    attempted += ep.ops_attempted;
    failed += ep.ops_attempted - ep.fp.ops_completed + ep.exhausted +
              ep.nacked;
    for (const auto& e : ep.errors) fail(what, e);
  }
  void fail(const char* what, const std::string& why) {
    ok = false;
    std::printf("# CHECK FAILED (%s): %s\n", what, why.c_str());
  }
  void print_failed_ratio() const {
    std::printf("# failed_op_ratio %.6f (ops attempted %llu)\n",
                per(static_cast<double>(failed), static_cast<double>(attempted)),
                static_cast<unsigned long long>(attempted));
  }
};

// ---- untraced run: end-to-end metrics ---------------------------------------

int run_untraced(const Args& args, const Plan& plan) {
  Gate gate;
  std::vector<Episode> eps;
  double rss_mb = 0.0;
  // Episodes take the allowed CPUs in turn. On a VM a slow spell often
  // stays on one vCPU (the host core under it is busy) for a whole run;
  // each slice's fastest time then comes from the episodes on the others.
  const std::vector<int> cpus = allowed_cpus();
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  while (eps.size() < kMinEpisodes || Clock::now() < deadline) {
    if (!cpus.empty()) pin_to_cpu(cpus[eps.size() % cpus.size()]);
    eps.push_back(run_episode(plan, {}, args.tally_offset));
    // Peak RSS of one deployment: later episodes only add allocator
    // fragmentation, which would tie the number to host speed.
    if (eps.size() == 1) rss_mb = peak_rss_mb();
    gate.add("untraced", eps.back());
    if (!(eps.back().fp == eps.front().fp)) {
      gate.fail("determinism", "episode " + std::to_string(eps.size() - 1) +
                                   " differs from episode 0");
    }
    if (!gate.ok) break;
  }

  const Episode& first = eps.front();
  std::vector<double> setup;
  std::printf("# per-episode ops_per_s:");
  for (const Episode& ep : eps) {
    std::printf(" %.1f", ops_per_s(ep));
    setup.push_back(ep.setup_s);
  }
  std::printf("\n");
  const auto& lat = first.steady_latencies_us;
  const double ops = static_cast<double>(first.fp.ops_completed);
  const double measure_s = quiet_measure_s(eps);
  Metrics m;
  m["ops_per_s"] = {per(ops, measure_s), "ops/s"};
  m["host_us_per_msg"] = {
      per(measure_s * 1e6, static_cast<double>(first.measured.logical_msgs)),
      "us"};
  double lat_sum = 0.0;
  for (const double x : lat) lat_sum += x;
  m["op_latency_mean_ms"] = {per(lat_sum, static_cast<double>(lat.size())) /
                                 1000.0,
                             "ms"};
  m["op_latency_p99_ms"] = {quantile(lat, 0.99) / 1000.0, "ms"};
  m["msgs_per_op"] = {per(static_cast<double>(first.measured.logical_msgs), ops),
                      "count"};
  // Set-up is not cut into slices; its fastest decile over the episodes
  // stands in for its quiet time.
  m["setup_s"] = {quantile(setup, 0.1), "s"};
  m["peak_rss_mb"] = {rss_mb, "MB"};

  std::printf("# workload %s seed %llu: %zu views, %zu ops/episode, "
              "%zu episodes; measured phase %.6f s from %zu slices\n",
              plan.workload.c_str(), static_cast<unsigned long long>(args.seed),
              plan.views.size(), plan.op_count(), eps.size(), measure_s,
              first.slice_s.size());
  std::printf("# steady-state latency samples %zu (p99 has %zu beyond it); "
              "op_latency_p50_ms %.6f\n",
              lat.size(), lat.size() / 100, quantile(lat, 0.50) / 1000.0);
  gate.print_failed_ratio();
  for (const auto& [name, metric] : m) {
    std::printf("# %-20s %14.6f %s\n", name.c_str(), metric.value,
                metric.unit);
  }
  print_result(gate.ok, gate.attempted, gate.failed, m);
  return gate.ok ? 0 : 1;
}

// ---- traced run: per-layer metrics ------------------------------------------

/// The per-layer numbers of one traced round.
Metrics layer_metrics(const Plan& plan, const Episode& plain,
                      const Episode& traced, const SpanRecorder& rec,
                      const Episode& obs_ep, std::uint64_t obs_events,
                      std::uint64_t violations, bool print_table) {
  constexpr Phase kM = Phase::kMeasure;
  const double ops = static_cast<double>(traced.fp.ops_completed);
  const PhaseCounters& c = traced.measured;
  const auto self_us = [&](Phase p, Layer l) {
    return static_cast<double>(rec.layer_totals(p, l).self_ns) / 1000.0;
  };
  const auto count = [&](Phase p, Layer l) {
    return static_cast<double>(rec.layer_totals(p, l).count);
  };
  // A role's timer cost: arming and cancelling its timers plus running
  // the ones that fire.
  const auto timer_us = [&](const std::string& role, Layer fired) {
    return static_cast<double>(
               rec.layer_totals(kM, fired).self_ns +
               rec.type_totals(kM, Layer::kSimSchedule, role).self_ns +
               rec.type_totals(kM, Layer::kSimCancel, role).self_ns) /
           1000.0;
  };
  const SpanTotals run = rec.layer_totals(kM, Layer::kSimRun);
  const double run_us = static_cast<double>(run.total_ns) / 1000.0;
  const double dispatch_us = static_cast<double>(run.self_ns) / 1000.0;
  const double net_us = self_us(kM, Layer::kNetSend);
  const double dm_us = self_us(kM, Layer::kDmHandle) + self_us(kM, Layer::kDmTimer);
  const double cm_us = self_us(kM, Layer::kCmHandle) + self_us(kM, Layer::kCmTimer);
  const double adapter_us = self_us(kM, Layer::kAdapterMerge) +
                            self_us(kM, Layer::kAdapterExtract);

  Metrics m;
  m["sim.events_per_op"] = {per(static_cast<double>(c.events), ops), "count"};
  m["sim.timers_per_op"] = {per(count(kM, Layer::kSimSchedule), ops), "count"};
  m["sim.timer_cancels_per_op"] = {per(count(kM, Layer::kSimCancel), ops),
                                   "count"};
  m["sim.dispatch_self_us_per_event"] = {
      per(dispatch_us, static_cast<double>(c.events)), "us"};
  m["sim.dispatch_share"] = {per(dispatch_us, run_us), "ratio"};
  m["net.send_us"] = {per(self_us(kM, Layer::kNetSend),
                          count(kM, Layer::kNetSend)),
                      "us"};
  m["net.send_share"] = {per(net_us, run_us), "ratio"};
  m["net.hops_per_op"] = {per(static_cast<double>(c.hops), ops), "count"};
  m["net.bytes_per_op"] = {per(static_cast<double>(c.bytes), ops), "bytes"};
  m["net.batch_coalesced_per_op"] = {
      per(static_cast<double>(c.batch_coalesced), ops), "count"};
  m["net.dropped_per_op"] = {per(static_cast<double>(c.dropped), ops), "count"};

  // DM self time per handled message, by type, from the phase the type
  // belongs to (registration/init in set-up, kill in teardown).
  struct TypePhase {
    const char* name;
    Phase phase;
  };
  const TypePhase dm_types[] = {
      {"pull_req", kM},          {"push_update", kM},
      {"fetch_reply", kM},       {"acquire_req", kM},
      {"invalidate_ack", kM},    {"register_req", Phase::kSetup},
      {"init_req", Phase::kSetup}, {"kill_req", Phase::kTeardown}};
  std::map<std::string, double> dm_type_us;
  for (const TypePhase& t : dm_types) {
    const SpanTotals tot = rec.type_totals(t.phase, Layer::kDmHandle,
                                           std::string("flecc.") + t.name);
    dm_type_us[t.name] = per(static_cast<double>(tot.self_ns) / 1000.0,
                             static_cast<double>(tot.count));
  }
  for (const char* t : {"pull_req", "fetch_reply", "register_req", "init_req",
                        "kill_req"}) {
    m[std::string("dm.self_us.") + t] = {dm_type_us[t], "us"};
  }
  m["dm.share"] = {per(dm_us, run_us), "ratio"};
  m["dm.timer_self_us"] = {per(timer_us("dm", Layer::kDmTimer), ops), "us"};
  m["dm.fetch_rounds_per_op"] = {per(static_cast<double>(c.dm_fetch_rounds), ops),
                                 "count"};
  m["dm.merges_per_op"] = {per(static_cast<double>(c.dm_merges), ops), "count"};
  m["dm.conflicting_views_us"] = {traced.probe.conflicting_views_us, "us"};
  m["dm.quality_us"] = {traced.probe.quality_us, "us"};
  m["dm.merge_log_len"] = {static_cast<double>(traced.probe.merge_log_len),
                           "count"};
  m["cm.self_us"] = {per(self_us(kM, Layer::kCmHandle), ops), "us"};
  m["cm.share"] = {per(cm_us, run_us), "ratio"};
  m["cm.timer_self_us"] = {per(timer_us("cm", Layer::kCmTimer), ops), "us"};
  m["cm.retransmits_per_op"] = {per(static_cast<double>(c.cm_retransmits), ops),
                                "count"};
  m["cm.wbuf_absorbed_per_op"] = {
      per(static_cast<double>(c.cm_wbuf_absorbed), ops), "count"};
  m["adapter.merge_us"] = {per(self_us(kM, Layer::kAdapterMerge),
                               count(kM, Layer::kAdapterMerge)),
                           "us"};
  m["adapter.merges_per_op"] = {per(count(kM, Layer::kAdapterMerge), ops),
                                "count"};
  m["adapter.extract_us"] = {per(self_us(kM, Layer::kAdapterExtract),
                                 count(kM, Layer::kAdapterExtract)),
                             "us"};
  m["adapter.extracts_per_op"] = {per(count(kM, Layer::kAdapterExtract), ops),
                                  "count"};
  m["adapter.share"] = {per(adapter_us, run_us), "ratio"};
  m["obs.events_per_op"] = {per(static_cast<double>(obs_events), ops), "count"};
  m["obs.overhead_ratio"] = {per(ops_per_s(obs_ep), ops_per_s(plain)), "ratio"};
  m["obs.violations"] = {static_cast<double>(violations), "count"};
  m["proc.allocs_per_op"] = {per(static_cast<double>(plain.measured.allocs), ops),
                             "count"};
  m["trace.overhead_ratio"] = {per(ops_per_s(traced), ops_per_s(plain)),
                               "ratio"};

  if (print_table) {
    std::printf("# per-layer self time, measured phase (%s, %.0f ops)\n",
                plan.workload.c_str(), ops);
    std::printf("# %-18s %10s %12s %10s %8s\n", "layer", "spans", "self_ms",
                "us/op", "share");
    double accounted = dispatch_us;
    const auto row = [&](const char* name, double n, double us) {
      std::printf("# %-18s %10.0f %12.3f %10.3f %8.4f\n", name, n, us / 1000.0,
                  per(us, ops), per(us, run_us));
    };
    row("sim.dispatch", static_cast<double>(c.events), dispatch_us);
    for (int l = static_cast<int>(Layer::kSimSchedule);
         l < static_cast<int>(Layer::kCount); ++l) {
      const auto layer = static_cast<Layer>(l);
      accounted += self_us(kM, layer);
      row(to_string(layer), count(kM, layer), self_us(kM, layer));
    }
    std::printf("# %-18s %10s %12.3f %10.3f %8.4f  (self times + dispatch = "
                "%.4f of sim.run)\n",
                "sim.run", "", run_us / 1000.0, per(run_us, ops), 1.0,
                per(accounted, run_us));
    std::printf("# dm self us/msg:");
    for (const TypePhase& t : dm_types) {
      std::printf(" %s=%.3f", t.name, dm_type_us[t.name]);
    }
    std::printf("\n");
  }
  return m;
}

int run_traced(const Args& args, const Plan& plan) {
  Gate gate;
  std::vector<Metrics> rounds;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  // Warm-up: the process's first episode pays for growing the heap, which
  // would otherwise bias the overhead ratios of the first round.
  gate.add("warm-up", run_episode(plan, {}, args.tally_offset));
  do {
    const Episode plain = run_episode(plan, {}, args.tally_offset);
    gate.add("untraced", plain);

    SpanRecorder rec;
    const Episode traced = run_episode(plan, {&rec, nullptr}, args.tally_offset);
    gate.add("traced", traced);
    if (!(traced.fp == plain.fp)) {
      gate.fail("non-perturbation",
                "traced episode's deterministic outputs differ from the "
                "untraced episode's");
    }

    // The obs variant: protocol events through the public configs, the
    // invariant monitor consuming them online. Write_mix runs disjoint
    // STRONG groups side by side, which the monitor's I1 check (it
    // assumes every pair of views conflicts) would misreport.
    flecc::obs::monitor::InvariantMonitor::Config mcfg;
    mcfg.assume_conflicting = !plan.has_strong();
    flecc::obs::monitor::InvariantMonitor monitor(mcfg);
    flecc::obs::TraceRecorder recorder;
    recorder.attach_sink(&monitor);
    const Episode obs_ep =
        run_episode(plan, {nullptr, &recorder}, args.tally_offset);
    monitor.finalize();
    gate.add("obs", obs_ep);
    if (!(obs_ep.fp == plain.fp)) {
      gate.fail("non-perturbation",
                "obs episode's deterministic outputs differ from the "
                "untraced episode's");
    }
    const std::uint64_t violations = monitor.violations().size();
    if (violations != 0) {
      gate.fail("invariants", monitor.health_report());
    }

    rounds.push_back(layer_metrics(plan, plain, traced, rec, obs_ep,
                                   recorder.total_emitted(), violations,
                                   rounds.empty()));
    if (!gate.ok) break;
  } while (Clock::now() < deadline);

  Metrics m;
  for (const auto& [name, first] : rounds.front()) {
    std::vector<double> values;
    for (const Metrics& r : rounds) values.push_back(r.at(name).value);
    m[name] = {quantile(values, 0.5), first.unit};
  }
  gate.print_failed_ratio();
  std::printf("# traced rounds %zu; per-layer medians:\n", rounds.size());
  for (const auto& [name, metric] : m) {
    std::printf("# %-32s %14.6f %s\n", name.c_str(), metric.value, metric.unit);
  }
  print_result(gate.ok, gate.attempted, gate.failed, m);
  return gate.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  Plan plan;
  try {
    plan = make_plan(args.workload, args.seed, args.scale);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  return args.trace ? run_traced(args, plan) : run_untraced(args, plan);
}
