#include "hosts.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "core/clock.h"
#include "daemon/daemon.h"
#include "daemon/daemon_group.h"
#include "sim/simulator.h"
#include "trace/scenarios.h"
#include "trace/synthetic.h"
#include "util.h"

namespace perfbench {

using namespace eacache;

namespace {

/// Requests in the smoke-replay and open-loop prefixes of every workload.
constexpr std::size_t kSmokeRequests = 10'000;
constexpr std::size_t kOpenLoopRequests = 50'000;
/// The saturated host's in-flight window and the open-loop host's offered
/// rate, well below the daemon's saturated throughput.
constexpr std::uint64_t kWindow = 32;
constexpr double kOfferedRps = 100'000.0;

/// The first `n` requests of `trace` (all of it when shorter).
Input prefix_input(const Trace& trace, std::size_t n) {
  Input input;
  const std::size_t take = std::min(n, trace.size());
  input.trace.requests.assign(trace.requests.begin(),
                              trace.requests.begin() + static_cast<std::ptrdiff_t>(take));
  input.facts = facts_of(input.trace.requests);
  return input;
}

/// 1024 client-facing leaves in clusters of 16 under 64 mid caches under one
/// root: the 1089-cache metro arm.
GroupConfig metro_group() {
  GroupConfig config;
  std::vector<std::optional<ProxyId>> parents(1089);
  for (ProxyId leaf = 0; leaf < 1024; ++leaf) {
    parents[leaf] = static_cast<ProxyId>(1024 + leaf / 16);
  }
  for (ProxyId mid = 1024; mid < 1088; ++mid) parents[mid] = 1088;
  parents[1088] = std::nullopt;
  config.topology = TopologyKind::kHierarchical;
  config.custom_parents = std::move(parents);
  config.aggregate_capacity = 64 * kMiB;
  config.replacement = PolicyKind::kLru;
  config.placement = PlacementKind::kEa;
  return config;
}

/// Flat EA/LRU ICP group.
GroupConfig flat_group(std::size_t proxies, Bytes aggregate) {
  GroupConfig config;
  config.num_proxies = proxies;
  config.aggregate_capacity = aggregate;
  config.replacement = PolicyKind::kLru;
  config.placement = PlacementKind::kEa;
  return config;
}

/// A flat group the daemon can serve. The per-proxy CacheExpAge series is
/// off: the daemon has no mid-run sampling hook, and the smoke-replay
/// agreement check compares whole result JSON.
GroupConfig live_group(std::size_t proxies, Bytes aggregate) {
  GroupConfig config = flat_group(proxies, aggregate);
  config.obs.series_points = 0;
  return config;
}

void pause_briefly() {
  for (int i = 0; i < 16; ++i) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

/// Drives a wall-clock DaemonGroup through its wire: closed loop at a fixed
/// in-flight window when `window` > 0, otherwise open loop at `rate`.
LiveRun drive_live(const Trace& trace, const GroupConfig& live, std::uint64_t window,
                   double rate) {
  constexpr std::chrono::seconds kDrainTimeout{10};
  LiveRun run;
  const std::size_t n = trace.size();
  run.completions.assign(n + 1, 0);
  std::vector<std::uint64_t> due(n, 0);
  std::vector<std::uint64_t> arrival(n + 1, 0);

  SteadyClock clock(trace.requests.front().at);
  DaemonGroup group(live, clock, DaemonMode::kWallClock);
  group.start();
  InMemoryTransport& wire = group.wire();
  const ProxyId load = group.load_endpoint();

  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t last_arrival = 0;
  const auto note = [&](const WireMessage& message, std::uint64_t at) {
    const std::uint64_t id = message.request_id;
    if (id == 0 || id > submitted) {
      ++run.completions[0];  // a completion for no submitted request
      return;
    }
    if (run.completions[id]++ == 0) {
      arrival[id] = at;
      last_arrival = std::max(last_arrival, at);
      ++completed;
    }
  };

  const std::uint64_t start = now_ns();
  const double spacing_ns = rate > 0.0 ? 1e9 / rate : 0.0;
  bool wedged = false;
  for (std::size_t i = 0; i < n && !wedged; ++i) {
    std::uint64_t sent_at = 0;
    if (window > 0) {
      while (submitted - completed >= window) {
        const auto message = wire.receive(load, kDrainTimeout);
        if (!message) {
          wedged = true;
          break;
        }
        note(*message, now_ns());
      }
      if (wedged) break;
      sent_at = now_ns();
      due[i] = sent_at;
    } else {
      due[i] = start + static_cast<std::uint64_t>(static_cast<double>(i) * spacing_ns);
      for (;;) {
        while (const auto message = wire.try_receive(load)) note(*message, now_ns());
        sent_at = now_ns();
        if (sent_at >= due[i]) break;
        pause_briefly();
      }
      run.lag_us.push_back(static_cast<double>(sent_at - due[i]) / 1e3);
    }
    const Request& request = trace.requests[i];
    WireMessage message;
    message.kind = WireMessage::Kind::kClientRequest;
    message.document = request.document;
    message.body_size = request.size;
    message.user = request.user;
    message.request_id = i + 1;
    message.to = group.home_proxy(request.user);
    message.stamp = clock.now();
    ++submitted;
    wire.send(message.to, message);
    run.in_flight_max = std::max(run.in_flight_max, submitted - completed);
  }
  const auto drain_deadline = std::chrono::steady_clock::now() + kDrainTimeout;
  while (completed < submitted) {
    const auto left = drain_deadline - std::chrono::steady_clock::now();
    if (left <= std::chrono::nanoseconds::zero()) break;
    if (const auto message = wire.receive(load, left)) note(*message, now_ns());
  }
  group.stop();
  run.result = group.collect_result();
  run.missing = n - completed;
  run.seconds = static_cast<double>(last_arrival - start) / 1e9;
  run.latency_us.reserve(completed);
  for (std::size_t i = 0; i < submitted; ++i) {
    if (run.completions[i + 1] > 0) {
      run.latency_us.push_back(static_cast<double>(arrival[i + 1] - due[i]) / 1e3);
    }
  }
  return run;
}

}  // namespace

InputFacts facts_of(std::span<const Request> requests) {
  InputFacts facts;
  std::unordered_set<DocumentId> seen;
  seen.reserve(requests.size());
  for (const Request& request : requests) {
    ++facts.requests;
    facts.bytes += request.size;
    if (seen.insert(request.document).second) {
      ++facts.distinct_documents;
      facts.distinct_bytes += request.size;
    }
  }
  return facts;
}

Workload make_workload(const std::string& name, std::uint64_t seed, std::size_t nproc) {
  Workload w;
  w.shards = std::max<std::size_t>(1, nproc);
  const std::size_t live_proxies = std::max<std::size_t>(1, nproc - 1);
  w.sharded_requests = 10'000;
  w.saturated_requests = 100'000;

  const std::uint64_t gen_start = now_ns();
  Trace trace;
  if (name == "flat8") {
    // The paper's setting: BU-calibrated traffic through 8 cooperating
    // proxies sharing 64 MiB.
    SyntheticTraceConfig traffic;
    traffic.seed = seed;
    traffic.num_requests = 300'000;
    traffic.num_documents = 46'830;
    traffic.num_users = 591;
    traffic.span = hours(24 * 30);
    traffic.zipf_alpha = 0.75;
    trace = generate_synthetic_trace(traffic);
    w.group = flat_group(8, 64 * kMiB);
    w.live = live_group(live_proxies, 64 * kMiB);
    w.sim_requests = 50'000;
    w.pipeline_requests = 25'000;
    w.checked_requests = 50'000;
    w.reps = {.sync = 8, .adhoc = 8, .pipeline = 6, .checked = 6, .open_loop = 2};
  } else if (name == "metro1089") {
    // Dense 2-minute burst through the 1089-cache hierarchy: ~60 KiB per
    // cache, so nearly every admit evicts and many requests overlap.
    SyntheticTraceConfig traffic;
    traffic.seed = seed;
    traffic.num_requests = 60'000;
    traffic.num_documents = 6'000;
    traffic.num_users = 4'096;
    traffic.span = minutes(2);
    trace = generate_synthetic_trace(traffic);
    w.group = metro_group();
    w.live = live_group(live_proxies, 64 * kMiB);
    w.sim_requests = 30'000;
    w.pipeline_requests = 10'000;
    w.checked_requests = 30'000;
    w.sharded_requests = trace.size();
    w.saturated_requests = trace.size();
    w.reps = {.sync = 6, .adhoc = 6, .pipeline = 4, .checked = 4, .saturated = 2};
  } else if (name == "daemon3") {
    // Popularity churn from the workload DSL, served live by nproc - 1
    // worker threads.
    const ScenarioPack* pack = find_scenario("hot-set-drift");
    if (pack == nullptr) throw std::logic_error("hot-set-drift scenario pack missing");
    WorkloadSpec spec = pack->spec;
    spec.seed = seed;
    trace = generate_workload_trace(spec);
    w.group = live_group(live_proxies, 8 * kMiB);
    w.live = w.group;
    w.sim_requests = trace.size();
    w.pipeline_requests = trace.size();
    w.checked_requests = trace.size();
    w.reps = {.sync = 8, .adhoc = 8, .pipeline = 3, .checked = 4, .sharded = 2, .smoke = 2,
              .saturated = 2, .open_loop = 2};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.trace_gen_ns_per_req =
      static_cast<double>(now_ns() - gen_start) / static_cast<double>(trace.size());
  w.full.trace = std::move(trace);
  return w;
}

void derive_inputs(Workload& w) {
  const Trace& trace = w.full.trace;
  w.full.facts = facts_of(trace.requests);
  w.sim = prefix_input(trace, w.sim_requests);
  w.pipeline = prefix_input(trace, w.pipeline_requests);
  w.checked = prefix_input(trace, w.checked_requests);
  w.sharded = prefix_input(trace, w.sharded_requests);
  w.smoke = prefix_input(trace, kSmokeRequests);
  w.saturated = prefix_input(trace, w.saturated_requests);
  w.open_loop = prefix_input(trace, kOpenLoopRequests);
}

Outcome outcome_of(const RunResult& result) {
  Outcome o;
  o.requests = result.metrics.total_requests();
  o.bytes_requested = result.metrics.bytes_requested();
  const RequestOutcome kinds[3] = {RequestOutcome::kLocalHit, RequestOutcome::kRemoteHit,
                                   RequestOutcome::kMiss};
  for (int k = 0; k < 3; ++k) {
    o.count[k] = result.metrics.count(kinds[k]);
    o.bytes[k] = result.metrics.bytes(kinds[k]);
  }
  o.latency_sum_ms = result.metrics.total_latency().count();
  o.transport = result.transport;
  o.validated = result.validation.enabled;
  o.violations = result.validation.violations;
  return o;
}

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void check_outcome(Checks& checks, const std::string& host, const Outcome& o,
                   const InputFacts& facts) {
  const auto sum = [](const auto& v) { return v[0] + v[1] + v[2]; };
  checks.expect(o.requests == facts.requests && sum(o.count) == facts.requests,
                host + ": outcome counts " + std::to_string(sum(o.count)) + " (total " +
                    std::to_string(o.requests) + ") != trace requests " +
                    std::to_string(facts.requests));
  checks.expect(o.bytes_requested == facts.bytes && sum(o.bytes) == facts.bytes,
                host + ": per-outcome bytes " + std::to_string(sum(o.bytes)) +
                    " != trace bytes " + std::to_string(facts.bytes));
  checks.expect(o.count[2] >= facts.distinct_documents,
                host + ": misses " + std::to_string(o.count[2]) +
                    " below the compulsory bound " + std::to_string(facts.distinct_documents));
  checks.expect(o.bytes[2] >= facts.distinct_bytes,
                host + ": miss bytes " + std::to_string(o.bytes[2]) +
                    " below the compulsory bound " + std::to_string(facts.distinct_bytes));
  const TransportStats& t = o.transport;
  checks.expect(t.icp_replies + t.icp_losses == t.icp_queries,
                host + ": ICP replies + losses != queries");
  checks.expect(t.http_responses == t.http_requests,
                host + ": HTTP responses != HTTP requests");
  if (o.validated) {
    checks.expect(o.violations == 0,
                  host + ": invariant checker found " + std::to_string(o.violations) +
                      " violation(s)");
  }
}

void check_same_outcome(Checks& checks, const std::string& what, const Outcome& a,
                        const Outcome& b) {
  const TransportStats& x = a.transport;
  const TransportStats& y = b.transport;
  const bool same_metrics = a.requests == b.requests && a.bytes_requested == b.bytes_requested &&
                            std::equal(a.count, a.count + 3, b.count) &&
                            std::equal(a.bytes, a.bytes + 3, b.bytes) &&
                            a.latency_sum_ms == b.latency_sum_ms;
  const bool same_transport =
      x.icp_queries == y.icp_queries && x.icp_replies == y.icp_replies &&
      x.icp_losses == y.icp_losses && x.http_requests == y.http_requests &&
      x.http_responses == y.http_responses && x.failed_probes == y.failed_probes &&
      x.digest_publications == y.digest_publications && x.origin_fetches == y.origin_fetches &&
      x.icp_bytes == y.icp_bytes && x.http_header_bytes == y.http_header_bytes &&
      x.http_body_bytes == y.http_body_bytes && x.piggyback_bytes == y.piggyback_bytes &&
      x.digest_bytes == y.digest_bytes;
  checks.expect(same_metrics, what + ": metrics differ");
  checks.expect(same_transport, what + ": transport counters differ");
}

void check_completions(Checks& checks, const std::string& host,
                       const std::vector<std::uint32_t>& completions) {
  std::uint64_t missing = 0;
  std::uint64_t repeated = 0;
  for (std::size_t id = 1; id < completions.size(); ++id) {
    if (completions[id] == 0) ++missing;
    if (completions[id] > 1) ++repeated;
  }
  checks.expect(missing == 0 && repeated == 0 && (completions.empty() || completions[0] == 0),
                host + ": " + std::to_string(missing) + " request(s) never completed, " +
                    std::to_string(repeated) + " completed twice, " +
                    std::to_string(completions.empty() ? 0 : completions[0]) +
                    " completion(s) for unknown ids");
}

HostRun run_sim(const Trace& trace, const RunSpec& spec) {
  HostRun host;
  const std::uint64_t start = now_ns();
  host.result = run(trace, spec);
  host.seconds = static_cast<double>(now_ns() - start) / 1e9;
  return host;
}

HostRun run_smoke(const Trace& trace, const GroupConfig& live) {
  RunSpec spec;
  spec.group = live;
  HostRun host;
  LoadGenReport report;
  const std::uint64_t start = now_ns();
  host.result = run_daemon(trace, spec, DaemonOptions{}, &report);
  host.seconds = static_cast<double>(now_ns() - start) / 1e9;
  if (report.completed != trace.size()) {
    throw std::runtime_error("smoke replay completed " + std::to_string(report.completed) +
                             " of " + std::to_string(trace.size()) + " requests");
  }
  return host;
}

LiveRun run_saturated(const Trace& trace, const GroupConfig& live) {
  return drive_live(trace, live, kWindow, 0.0);
}

LiveRun run_open_loop(const Trace& trace, const GroupConfig& live) {
  return drive_live(trace, live, 0, kOfferedRps);
}

}  // namespace perfbench
