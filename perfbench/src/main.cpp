// perfbench: the end-to-end benchmark of the EA cooperative cache.
//
//   perfbench --workload <flat8|metro1089|daemon3> --seed <n> --seconds <s>
//             --trace <0|1> [--spans-out <file>]
//   perfbench --self-test
//
// A run builds the workload from the seed, then repeats rounds until
// `--seconds` are used. A round replays the workload once through every
// host: the classic driver with EA and with ad-hoc placement, the
// event-driven pipeline, the classic driver with the invariant checker, the
// sharded engine, and the live daemon in closed-loop smoke replay, at a
// fixed in-flight window and at a fixed offered rate. Every host run is
// checked against facts the benchmark computes from the trace itself. The
// last line of standard output is one JSON object: end-to-end metrics
// (medians over rounds) with --trace 0, per-layer metrics with --trace 1.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/clock.h"
#include "core/run_result_json.h"
#include "daemon/daemon_group.h"
#include "group/cache_group.h"
#include "hosts.h"
#include "layers.h"
#include "util.h"

namespace perfbench {
namespace {

using namespace eacache;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>]\n       perfbench --self-test\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--spans-out") {
        args.spans_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!args.self_test && !have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// Requests per second of `requests` over `seconds`.
double rps(std::size_t requests, double seconds) {
  return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
}

/// A single-threaded host's throughput over a run: its fastest replay.
/// On a shared machine other tenants slow these replays by up to half, in
/// bursts from a fraction of a second to minutes, and never speed one up;
/// the share of slowed replays changes from run to run, so the median and
/// even the upper decile of a run moved by more than a quarter between
/// runs. A change to the program moves every replay, the fastest included.
/// Threaded hosts vary both ways around their median and report it.
double run_rps(const std::vector<double>& per_replay) { return quantile(per_replay, 1.0); }

/// Everything the rounds measured: one throughput sample per host replay.
struct Samples {
  std::vector<double> sync, adhoc, pipeline, checked, sharded, replay, saturated;
  /// One per open-loop replay. Only quantiles are kept: pooling every
  /// request's latency made peak RSS grow with the number of rounds.
  std::vector<double> p50_us, p90_us, p99_us, lag_p99_us;
  std::vector<double> in_flight_max, wire_msgs_per_req;
  double shard1_seconds = 0.0;
  RunResult sync_result;  // the first sync run's, for the checks
  Outcome checked_reference;  // the sync driver on the checker host's input
  std::string live_sync_json;  // the sync driver on the smoke-replay input
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

RunSpec spec_for(const GroupConfig& group) {
  RunSpec spec;
  spec.group = group;
  return spec;
}

/// Runs a RunSpec host on `input` and checks its outcome.
HostRun sim_host(const std::string& host, const Input& input, const RunSpec& spec,
                 Checks& checks, Samples& s) {
  HostRun run = run_sim(input.trace, spec);
  check_outcome(checks, host, outcome_of(run.result), input.facts);
  s.attempted += input.trace.size();
  return run;
}

/// Checks a wall-clock daemon run and counts its failures.
void check_live(const std::string& host, const Input& input, const LiveRun& run, Checks& checks,
                Samples& s) {
  check_outcome(checks, host, outcome_of(run.result), input.facts);
  check_completions(checks, host, run.completions);
  s.attempted += input.trace.size();
  s.failed += run.missing;
}

/// One round: every host its workload's number of times, interleaved so
/// that each host's samples spread over the round. The first round also
/// runs the sharded engine at one shard, whose result must equal nproc
/// shards', and the sync driver on the checker host's and the smoke
/// replay's inputs, whose results those hosts must equal.
void run_round(const Workload& w, bool first, Checks& checks, Samples& s) {
  const RunSpec sync_spec = spec_for(w.group);
  RunSpec adhoc_spec = sync_spec;
  adhoc_spec.group.placement = PlacementKind::kAdHoc;
  RunSpec pipeline_spec = sync_spec;
  pipeline_spec.group.pipeline.event_driven = true;
  RunSpec checked_spec = sync_spec;
  checked_spec.check_invariants = true;
  RunSpec sharded_spec = sync_spec;
  sharded_spec.exec.shards = w.shards;
  const std::size_t n = w.sim.trace.size();

  if (first) {
    const HostRun reference = sim_host("checked-sync", w.checked, sync_spec, checks, s);
    s.checked_reference = outcome_of(reference.result);
  }
  const Repetitions& reps = w.reps;
  for (int rep = 0; rep < reps.most(); ++rep) {
    if (rep < reps.sync) {
      HostRun sync = sim_host("sync", w.sim, sync_spec, checks, s);
      s.sync.push_back(rps(n, sync.seconds));
      if (s.sync.size() == 1) {
        s.sync_result = std::move(sync.result);
      } else {
        check_same_outcome(checks, "sync vs an earlier sync run", outcome_of(sync.result),
                           outcome_of(s.sync_result));
      }
    }
    if (rep < reps.adhoc) {
      const HostRun adhoc = sim_host("adhoc", w.sim, adhoc_spec, checks, s);
      s.adhoc.push_back(rps(n, adhoc.seconds));
    }
    if (rep < reps.pipeline) {
      const HostRun pipeline = sim_host("pipeline", w.pipeline, pipeline_spec, checks, s);
      s.pipeline.push_back(rps(w.pipeline.trace.size(), pipeline.seconds));
    }
    if (rep < reps.checked) {
      const HostRun checked = sim_host("checked", w.checked, checked_spec, checks, s);
      checks.expect(checked.result.validation.enabled,
                    "checked: the invariant checker did not run");
      check_same_outcome(checks, "checked vs sync", outcome_of(checked.result),
                         s.checked_reference);
      s.checked.push_back(rps(w.checked.trace.size(), checked.seconds));
    }
    if (rep < reps.sharded) {
      const HostRun sharded = sim_host("sharded", w.sharded, sharded_spec, checks, s);
      s.sharded.push_back(rps(w.sharded.trace.size(), sharded.seconds));
      if (first && rep == 0) {
        RunSpec one_spec = sync_spec;
        one_spec.exec.shards = 1;
        const HostRun one = sim_host("sharded-1", w.sharded, one_spec, checks, s);
        s.shard1_seconds = one.seconds;
        checks.expect(run_result_to_json(one.result) == run_result_to_json(sharded.result),
                      "sharded: result JSON at 1 shard != at " + std::to_string(w.shards));
      }
    }
    if (rep < reps.smoke) {
      const HostRun smoke = run_smoke(w.smoke.trace, w.live);
      check_outcome(checks, "daemon-replay", outcome_of(smoke.result), w.smoke.facts);
      s.attempted += w.smoke.trace.size();
      if (s.live_sync_json.empty()) {
        const HostRun live_sync = sim_host("live-sync", w.smoke, spec_for(w.live), checks, s);
        s.live_sync_json = run_result_to_json(live_sync.result);
      }
      checks.expect(run_result_to_json(smoke.result) == s.live_sync_json,
                    "daemon-replay: result JSON != the sync driver's on the same group and trace");
      s.replay.push_back(rps(w.smoke.trace.size(), smoke.seconds));
    }
    if (rep < reps.saturated) {
      const LiveRun saturated = run_saturated(w.saturated.trace, w.live);
      check_live("daemon-saturated", w.saturated, saturated, checks, s);
      s.saturated.push_back(rps(w.saturated.trace.size(), saturated.seconds));
      s.wire_msgs_per_req.push_back(
          static_cast<double>(saturated.result.transport.total_messages()) /
              static_cast<double>(w.saturated.trace.size()) +
          2.0);  // plus the client request and its completion
    }
    if (rep < reps.open_loop) {
      const LiveRun open = run_open_loop(w.open_loop.trace, w.live);
      check_live("daemon-open-loop", w.open_loop, open, checks, s);
      s.p50_us.push_back(quantile(open.latency_us, 0.50));
      s.p90_us.push_back(quantile(open.latency_us, 0.90));
      s.p99_us.push_back(quantile(open.latency_us, 0.99));
      s.lag_p99_us.push_back(quantile(open.lag_us, 0.99));
      s.in_flight_max.push_back(static_cast<double>(open.in_flight_max));
    }
  }
}

/// Builds the workload's group and replays the workload through the
/// benchmark's own CacheGroup::serve loop, recording one span per serve call
/// when `tracer` is enabled. Returns the wall time of both in seconds, as
/// run() builds its group inside its own; `serve_ns` receives each call's
/// duration.
double serve_loop(const Workload& w, Tracer& tracer, std::uint64_t parent, Checks& checks,
                  const RunResult& sync_result, std::vector<double>* serve_ns) {
  const std::uint64_t start = now_ns();
  CacheGroup group(w.group);
  std::uint64_t index = 0;
  for (const Request& r : w.full.trace.requests) {
    ++index;
    if (tracer.enabled()) {
      const std::uint64_t t0 = now_ns();
      (void)group.serve(r);
      const std::uint64_t t1 = now_ns();
      tracer.add("group.serve", parent, index, t0, t1);
      if (serve_ns != nullptr) serve_ns->push_back(static_cast<double>(t1 - t0));
    } else {
      (void)group.serve(r);
    }
  }
  const double seconds = static_cast<double>(now_ns() - start) / 1e9;
  RunResult loop;
  loop.metrics = group.metrics();
  loop.transport = group.transport_stats();
  check_same_outcome(checks, "serve loop vs run()", outcome_of(loop), outcome_of(sync_result));
  return seconds;
}

/// Sum of the registry counters whose names end in `suffix`.
double sum_counters(const MetricRegistry& registry, const std::string& suffix) {
  double total = 0.0;
  for (const auto& [name, value] : registry.counters()) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += static_cast<double>(value);
    }
  }
  return total;
}

/// The traced part of a --trace 1 run: spans around every layer call and
/// the per-layer replays. Returns the per-layer metrics.
LayerMetrics traced_layers(const Workload& w, const Samples& s, double construct_ms,
                           double bytes_per_entry, Tracer& tracer, Checks& checks) {
  LayerMetrics out;
  const double clock_ns = clock_overhead_ns();
  const double n = static_cast<double>(w.full.trace.size());
  RunResult sync;  // the sync driver on the whole trace, from the first pair below

  out["trace.gen_ns_per_req"] = w.trace_gen_ns_per_req;
  out["group.construct_ms"] = construct_ms;
  out["storage.bytes_per_entry"] = bytes_per_entry;

  {
    // Pairs of run() and the benchmark's plain serve loop; the last three
    // pairs are followed by the same loop with a span per serve call, and
    // the last traced loop's spans are the ones kept. The driver's cost is
    // the median over pairs of run() less the plain loop next to it.
    constexpr int kPairs = 7;
    const RunSpec spec = spec_for(w.group);
    std::vector<double> driver_s, plain, traced, serve_totals, serve_ns;
    serve_ns.reserve(w.full.trace.size());
    Tracer off(false);
    for (int i = 0; i < kPairs; ++i) {
      HostRun run = run_sim(w.full.trace, spec);
      const double run_s = run.seconds;
      if (i == 0) {
        check_outcome(checks, "sync-full", outcome_of(run.result), w.full.facts);
        sync = std::move(run.result);
      }
      plain.push_back(serve_loop(w, off, 0, checks, sync, nullptr));
      driver_s.push_back(run_s - plain.back());
      if (i + 3 < kPairs) continue;
      Tracer scratch(true);
      Tracer& loop_tracer = i + 1 == kPairs ? tracer : scratch;
      loop_tracer.reserve_more(w.full.trace.size() + 1);
      const ScopedSpan host(loop_tracer, "host.sync.serve_loop");
      serve_ns.clear();
      traced.push_back(serve_loop(w, loop_tracer, host.id(), checks, sync, &serve_ns));
      double total = 0.0;
      for (const double v : serve_ns) total += v - clock_ns;
      serve_totals.push_back(total);
    }
    out["group.serve_ns"] = median(serve_totals) / n;
    out["group.serve_p99_ns"] = quantile(serve_ns, 0.99) - clock_ns;
    // A median pair difference at or below zero means the driver's cost is
    // below what the pairs resolve on this machine: it is reported as
    // measured and named on stderr as unresolved.
    const double driver_ns = median(driver_s) * 1e9 / n;
    if (driver_ns <= 0.0) {
      std::fprintf(stderr, "sim.driver_ns_per_req unresolved: median pair difference %.1f ns\n",
                   driver_ns);
    }
    out["sim.driver_ns_per_req"] = driver_ns;
    out["bench.trace_overhead"] = median(traced) / median(plain);
  }
  {
    const ScopedSpan span(tracer, "layer.storage");
    const StorageReplay replay = replay_storage(w, clock_ns, out);
    check_storage(checks, replay);
    out["ea.age_queries_per_req"] = sum_counters(sync.registry, ".ea.age_queries") / n;
  }
  {
    const ScopedSpan span(tracer, "layer.proxy.answer_icp");
    replay_icp_answers(w, clock_ns, out);
    out["group.icp_probes_per_req"] = static_cast<double>(sync.transport.icp_queries) / n;
  }
  {
    const ScopedSpan span(tracer, "layer.net.transport");
    replay_transport(w, sync.transport, checks, out);
  }
  {
    const ScopedSpan span(tracer, "layer.event.queue");
    replay_event_queue(w, clock_ns, out);
  }
  {
    const ScopedSpan span(tracer, "layer.core.mailbox");
    measure_mailbox_hop(out);
  }
  {
    const ScopedSpan span(tracer, "layer.obs.registry");
    replay_registry(w, out);
    // Registry off over on, alternated, medians of three each.
    std::vector<double> on, off;
    RunSpec on_spec = spec_for(w.group);
    RunSpec off_spec = on_spec;
    off_spec.group.obs.registry = false;
    for (int i = 0; i < 3; ++i) {
      on.push_back(rps(w.full.trace.size(), run_sim(w.full.trace, on_spec).seconds));
      off.push_back(rps(w.full.trace.size(), run_sim(w.full.trace, off_spec).seconds));
    }
    out["obs.registry_overhead"] = median(off) / median(on);
  }
  {
    const ScopedSpan span(tracer, "layer.core.result_json");
    std::vector<double> ms;
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t t0 = now_ns();
      const std::string json = run_result_to_json(sync);
      ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      checks.expect(!json.empty(), "core: empty result JSON");
    }
    out["core.result_json_ms"] = median(ms);
  }
  const double shard1_rps = rps(w.sharded.trace.size(), s.shard1_seconds);
  out["sim.shard1_rps"] = shard1_rps;
  out["sim.shard_speedup"] = median(s.sharded) / shard1_rps;
  {
    // The checker's cost per request: the median over alternated pairs of
    // a checker-attached run less a plain one on the same input.
    const ScopedSpan span(tracer, "layer.validate.checker");
    const RunSpec plain = spec_for(w.group);
    RunSpec checked = plain;
    checked.check_invariants = true;
    std::vector<double> extra_s;
    for (int i = 0; i < 5; ++i) {
      const double plain_s = run_sim(w.checked.trace, plain).seconds;
      extra_s.push_back(run_sim(w.checked.trace, checked).seconds - plain_s);
    }
    out["validate.checker_ns_per_req"] =
        median(extra_s) * 1e9 / static_cast<double>(w.checked.trace.size());
  }
  out["daemon.wire_msgs_per_req"] = median(s.wire_msgs_per_req);
  out["daemon.in_flight_max"] = median(s.in_flight_max);
  out["daemon.gen_lag_p99_us"] = median(s.lag_p99_us);
  out["daemon.open_loop_p99_us"] = median(s.p99_us);
  return out;
}

/// Appends `"name":{"value":v,"unit":"u"}` with the value's shortest exact
/// decimal form.
void append_metric(std::string& json, const std::string& name, double value,
                   const std::string& unit) {
  char digits[64];
  const auto result = std::to_chars(digits, digits + sizeof digits, value);
  if (json.back() != '{') json += ',';
  json += '"' + name + "\":{\"value\":" + std::string(digits, result.ptr) + ",\"unit\":\"" +
          unit + "\"}";
}

/// Per-layer metric units, in the order BENCHMARK.json lists them.
const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"trace.gen_ns_per_req", "ns"},       {"group.construct_ms", "ms"},
      {"group.serve_ns", "ns"},             {"group.serve_p99_ns", "ns"},
      {"sim.driver_ns_per_req", "ns"},      {"storage.lookup_ns", "ns"},
      {"storage.touch_ns", "ns"},           {"storage.admit_ns", "ns"},
      {"storage.evictions_per_req", "count"}, {"storage.bytes_per_entry", "B"},
      {"ea.age_query_ns", "ns"},            {"ea.on_eviction_ns", "ns"},
      {"ea.age_queries_per_req", "count"},  {"proxy.icp_answer_ns", "ns"},
      {"group.icp_probes_per_req", "count"}, {"group.icp_hit_ratio", "ratio"},
      {"net.transport_record_ns", "ns"},    {"net.messages_per_req", "count"},
      {"net.bytes_per_req", "B"},           {"event.schedule_fire_ns", "ns"},
      {"event.cancel_ns", "ns"},            {"sim.shard_speedup", "ratio"},
      {"sim.shard1_rps", "req/s"},          {"core.mailbox_hop_ns", "ns"},
      {"core.result_json_ms", "ms"},        {"daemon.wire_msgs_per_req", "count"},
      {"daemon.in_flight_max", "count"},    {"daemon.gen_lag_p99_us", "us"},
      {"daemon.open_loop_p99_us", "us"},
      {"obs.counter_inc_ns", "ns"},         {"obs.histogram_observe_ns", "ns"},
      {"obs.registry_overhead", "ratio"},   {"validate.checker_ns_per_req", "ns"},
      {"bench.trace_overhead", "ratio"},
  };
  return units;
}

int run_benchmark(const Args& args, std::uint64_t process_start) {
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  Tracer tracer(args.trace);
  Checks checks;
  // Measured first, before any freed heap exists that the store could reuse.
  const double bytes_per_entry = args.trace ? measure_bytes_per_entry() : 0.0;

  // Cold set-up: the workload's traffic, one construction of its group, and
  // one start of the live daemon's worker threads. The benchmark's own
  // inputs (the traces' facts and the hosts' prefixes) come after it.
  const std::uint64_t setup_span = tracer.open("setup");
  const std::uint64_t gen_span = tracer.open("trace.generate", setup_span);
  Workload workload = make_workload(args.workload, args.seed, nproc);
  tracer.close(gen_span);
  double construct_ms = 0.0;
  {
    const ScopedSpan span(tracer, "group.construct", setup_span);
    const std::uint64_t t0 = now_ns();
    const CacheGroup group(workload.group);
    construct_ms = static_cast<double>(now_ns() - t0) / 1e6;
  }
  {
    const ScopedSpan span(tracer, "daemon.start", setup_span);
    SteadyClock clock;
    DaemonGroup live(workload.live, clock, DaemonMode::kWallClock);
    live.start();
    live.stop();
  }
  tracer.close(setup_span);
  const double setup_s = static_cast<double>(now_ns() - process_start) / 1e9;
  derive_inputs(workload);
  const Workload& w = workload;

  // Whole rounds until the next one would overrun the measuring time, and
  // never fewer than one.
  Samples s;
  const std::uint64_t rounds_start = now_ns();
  double last_round = 0.0;
  for (int round = 0;; ++round) {
    const double used = static_cast<double>(now_ns() - rounds_start) / 1e9;
    if (round > 0 && used + last_round > args.seconds) break;
    const std::uint64_t t0 = now_ns();
    const ScopedSpan span(tracer, "round");
    run_round(w, round == 0, checks, s);
    last_round = static_cast<double>(now_ns() - t0) / 1e9;
    std::fprintf(stderr,
                 "round %d: %.2f s; req/s sync %.0f adhoc %.0f pipeline %.0f checked %.0f "
                 "sharded %.0f replay %.0f saturated %.0f\n",
                 round, last_round, s.sync.back(), s.adhoc.back(), s.pipeline.back(),
                 s.checked.back(), s.sharded.back(), s.replay.back(), s.saturated.back());
  }

  const auto spread = [](const char* host, const std::vector<double>& v) {
    std::fprintf(stderr, "%s: %zu replays, req/s min %.0f median %.0f max %.0f\n", host, v.size(),
                 quantile(v, 0.0), median(v), quantile(v, 1.0));
  };
  spread("sync", s.sync);
  spread("adhoc", s.adhoc);
  spread("pipeline", s.pipeline);
  spread("checked", s.checked);

  std::string json = "{";
  if (args.trace) {
    const LayerMetrics layers = traced_layers(w, s, construct_ms, bytes_per_entry, tracer, checks);
    for (const auto& [name, unit] : layer_units()) append_metric(json, name, layers.at(name), unit);
    if (!args.spans_out.empty()) tracer.write_jsonl(args.spans_out);
  } else {
    append_metric(json, "setup_s", setup_s, "s");
    append_metric(json, "sync_rps", run_rps(s.sync), "req/s");
    append_metric(json, "adhoc_rps", run_rps(s.adhoc), "req/s");
    append_metric(json, "pipeline_rps", run_rps(s.pipeline), "req/s");
    append_metric(json, "checked_rps", run_rps(s.checked), "req/s");
    append_metric(json, "sharded_rps", median(s.sharded), "req/s");
    append_metric(json, "daemon_replay_rps", median(s.replay), "req/s");
    append_metric(json, "daemon_saturated_rps", median(s.saturated), "req/s");
    append_metric(json, "daemon_p50_us", median(s.p50_us), "us");
    append_metric(json, "daemon_p90_us", median(s.p90_us), "us");
    append_metric(json, "peak_rss_mib", static_cast<double>(peak_rss_bytes()) / (1 << 20),
                  "MiB");
  }
  json += '}';
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              checks.ok() ? "true" : "false", static_cast<unsigned long long>(s.attempted),
              static_cast<unsigned long long>(s.failed), json.c_str());
  return checks.ok() ? 0 : 1;
}

/// Negative controls: perturbs one result per check and shows the check
/// then fails. Exit 0 only when every unperturbed check passes and every
/// perturbed one fails.
int self_test() {
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  Workload w = make_workload("flat8", 1, nproc);
  derive_inputs(w);
  w.full = w.smoke;  // the 10k-request smoke prefix keeps the self-test short
  const RunSpec spec = spec_for(w.group);
  RunSpec checked_spec = spec;
  checked_spec.check_invariants = true;
  const Outcome sync = outcome_of(run_sim(w.full.trace, spec).result);
  const Outcome checked = outcome_of(run_sim(w.full.trace, checked_spec).result);
  LayerMetrics unused;
  const StorageReplay storage = replay_storage(w, 0.0, unused);
  Input small;
  small.trace.requests.assign(w.full.trace.requests.begin(), w.full.trace.requests.begin() + 2000);
  small.facts = facts_of(small.trace.requests);
  const LiveRun live = run_saturated(small.trace, w.live);

  const auto all_checks = [&](const Outcome& c, const StorageReplay& st, const LiveRun& lv) {
    Checks checks;
    check_outcome(checks, "sync", sync, w.full.facts);
    check_outcome(checks, "checked", c, w.full.facts);
    check_same_outcome(checks, "checked vs sync", c, sync);
    check_storage(checks, st);
    check_outcome(checks, "daemon-saturated", outcome_of(lv.result), small.facts);
    check_completions(checks, "daemon-saturated", lv.completions);
    return checks.failures();
  };

  int wrong = 0;
  const auto expect = [&wrong](const char* control, bool should_fail, std::uint64_t failures) {
    const bool failed = failures > 0;
    std::printf("self-test %-28s %s (%llu failed check(s))\n", control,
                failed == should_fail ? "ok" : "WRONG",
                static_cast<unsigned long long>(failures));
    if (failed != should_fail) ++wrong;
  };
  std::fprintf(stderr, "self-test: the CHECK FAILED lines below are expected\n");
  expect("unperturbed", false, all_checks(checked, storage, live));

  Outcome moved = checked;  // one hit becomes a miss
  --moved.count[0];
  ++moved.count[2];
  expect("hit-moved-to-miss", true, all_checks(moved, storage, live));

  Outcome short_byte = checked;  // one byte dropped
  --short_byte.bytes[2];
  expect("byte-dropped", true, all_checks(short_byte, storage, live));

  StorageReplay flipped = storage;  // one reference-LRU hit flipped
  --flipped.reference_hits;
  expect("reference-lru-hit-flipped", true, all_checks(checked, flipped, live));

  LiveRun skipped = live;  // one daemon completion skipped
  skipped.completions[1] = 0;
  expect("daemon-completion-skipped", true, all_checks(checked, storage, skipped));

  std::printf("self-test %s\n", wrong == 0 ? "passed" : "FAILED");
  return wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::uint64_t process_start = perfbench::now_ns();
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return args.self_test ? perfbench::self_test()
                          : perfbench::run_benchmark(args, process_start);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
