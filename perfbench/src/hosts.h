// Workloads, the hosts that replay them and the checks on every host run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/run_result.h"
#include "core/run_spec.h"
#include "group/cache_group.h"
#include "trace/trace.h"

namespace perfbench {

/// What the benchmark itself computes from a trace: the oracle side of the
/// output checks, independent of every host.
struct InputFacts {
  std::uint64_t requests = 0;
  eacache::Bytes bytes = 0;
  std::uint64_t distinct_documents = 0;
  /// Sum over distinct documents of the size of their first request: the
  /// bytes the compulsory misses alone must fetch.
  eacache::Bytes distinct_bytes = 0;
};
[[nodiscard]] InputFacts facts_of(std::span<const eacache::Request> requests);

/// One replayable input: a trace (or a prefix of the workload's trace) and
/// its facts.
struct Input {
  eacache::Trace trace;
  InputFacts facts;
};

/// How many times each host runs in one round. Cheap hosts repeat so that
/// every host is sampled for a similar share of the measuring time.
struct Repetitions {
  int sync = 1;
  int adhoc = 1;
  int pipeline = 1;
  int checked = 1;
  int sharded = 1;
  int smoke = 1;
  int saturated = 1;
  int open_loop = 1;
  [[nodiscard]] int most() const {
    return std::max({sync, adhoc, pipeline, checked, sharded, smoke, saturated, open_loop});
  }
};

/// A workload: the traffic, the group it is replayed through, the inputs of
/// the hosts that take a prefix of the traffic, and each host's repetitions
/// per round.
struct Workload {
  eacache::GroupConfig group;  // the workload's own group
  /// The flat EA/LRU group of nproc - 1 proxies the daemon hosts serve:
  /// one worker thread per proxy plus the load generator fit the cores.
  eacache::GroupConfig live;
  std::size_t shards = 1;  // the sharded host's shard count (nproc)
  Input full;              // the whole trace: the traced run's layer replays
  Input sim;               // sync and ad-hoc hosts
  Input pipeline;          // event-driven pipeline host
  Input checked;           // checker-attached host
  Input sharded;           // sharded host
  Input smoke;             // closed-loop daemon replay
  Input saturated;         // wall-clock daemon at a fixed in-flight window
  Input open_loop;         // wall-clock daemon at a fixed offered rate
  /// Requests in each host's prefix of the traffic. The single-threaded
  /// hosts replay prefixes that take a tenth to a fifth of a second, so that
  /// some replays fall inside the machine's fast phases (see run_rps).
  std::size_t sim_requests = 0;
  std::size_t pipeline_requests = 0;
  std::size_t checked_requests = 0;
  std::size_t sharded_requests = 0;
  std::size_t saturated_requests = 0;
  Repetitions reps;
  double trace_gen_ns_per_req = 0;  // measured while the workload is built
};

/// Builds workload `name` from `seed` (throws std::invalid_argument on an
/// unknown name): generates its traffic into `full.trace` and sets up its
/// groups. `nproc` sizes the sharded and daemon hosts. The inputs' facts
/// and the prefixes are left to derive_inputs.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed,
                                     std::size_t nproc);
/// Computes the full trace's facts and copies each host's prefix with its
/// facts: the benchmark's own work, kept out of the timed set-up.
void derive_inputs(Workload& w);

/// A host result reduced to what the checks compare.
struct Outcome {
  std::uint64_t requests = 0;
  std::uint64_t count[3] = {0, 0, 0};  // local hit, remote hit, miss
  eacache::Bytes bytes_requested = 0;
  eacache::Bytes bytes[3] = {0, 0, 0};
  std::int64_t latency_sum_ms = 0;
  eacache::TransportStats transport;
  bool validated = false;
  std::uint64_t violations = 0;
};
[[nodiscard]] Outcome outcome_of(const eacache::RunResult& result);

/// Collects failed checks; each failure is reported on stderr once.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] bool ok() const { return failures_ == 0; }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }

 private:
  std::uint64_t failures_ = 0;
};

/// Outcome counts and bytes add up to the input, misses cover every
/// distinct document, ICP replies plus losses equal queries, HTTP responses
/// equal requests, and a checker-attached run reports no violation.
void check_outcome(Checks& checks, const std::string& host, const Outcome& outcome,
                   const InputFacts& facts);
/// Two runs agree on every metric and transport counter.
void check_same_outcome(Checks& checks, const std::string& what, const Outcome& a,
                        const Outcome& b);
/// Every request id 1..n completed exactly once; `completions[id]` counts
/// the completions seen for id (index 0 unused).
void check_completions(Checks& checks, const std::string& host,
                       const std::vector<std::uint32_t>& completions);

/// A timed run of one host.
struct HostRun {
  double seconds = 0.0;
  eacache::RunResult result;
};
/// run(trace, spec), timed.
[[nodiscard]] HostRun run_sim(const eacache::Trace& trace, const eacache::RunSpec& spec);
/// run_daemon in closed-loop smoke replay, timed.
[[nodiscard]] HostRun run_smoke(const eacache::Trace& trace, const eacache::GroupConfig& live);

/// A wall-clock daemon run driven through DaemonGroup::wire().
struct LiveRun {
  double seconds = 0.0;  // first submission to last completion
  eacache::RunResult result;
  std::vector<std::uint32_t> completions;  // per request id, index 0 unused
  std::vector<double> latency_us;          // due time to completion arrival
  std::vector<double> lag_us;              // how late each request was sent
  std::uint64_t in_flight_max = 0;
  std::uint64_t missing = 0;  // submitted requests that never completed
};
/// Closed loop with kWindow requests in flight, submitted as fast as the
/// window admits them.
[[nodiscard]] LiveRun run_saturated(const eacache::Trace& trace,
                                    const eacache::GroupConfig& live);
/// Open loop: request i is due at start + i / kOfferedRps and is sent
/// then, whatever is still in flight.
[[nodiscard]] LiveRun run_open_loop(const eacache::Trace& trace,
                                    const eacache::GroupConfig& live);

}  // namespace perfbench
