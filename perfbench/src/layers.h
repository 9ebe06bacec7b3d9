// Per-layer replays of the traced run. Each replays the workload's own
// operation stream against one layer's public API, one call at a time, and
// reports nanoseconds per call and the work done per request.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/run_result.h"
#include "hosts.h"
#include "util.h"

namespace perfbench {

/// Per-layer metric values by name.
using LayerMetrics = std::map<std::string, double>;

/// What the storage replay counted, for the reference-LRU and age checks.
struct StorageReplay {
  std::uint64_t store_hits = 0;
  std::uint64_t reference_hits = 0;
  /// Per proxy: the estimator's cumulative age and the brute-force mean of
  /// (evict - last hit) over the same victims, in ms (proxies with victims).
  std::vector<std::pair<double, double>> ages;
};

/// Replays each client-facing proxy's home substream through a standalone
/// LRU CacheStore at that proxy's capacity, feeding the victims to a
/// ContentionEstimator and querying its age once per request. Fills the
/// storage.* and ea.* timings.
[[nodiscard]] StorageReplay replay_storage(const Workload& w, double clock_ns,
                                           LayerMetrics& out);
/// Reference-LRU hits equal the store's; cumulative ages equal the
/// brute-force means.
void check_storage(Checks& checks, const StorageReplay& replay);

/// Replays the trace through a CacheGroup, timing ProxyCache::answer_icp on
/// every peer a local miss would probe.
void replay_icp_answers(const Workload& w, double clock_ns, LayerMetrics& out);

/// Replays the sync run's message mix through a standalone Transport bound
/// to a registry, and checks the counts it recorded.
void replay_transport(const Workload& w, const eacache::TransportStats& run_stats,
                      Checks& checks, LayerMetrics& out);

/// schedule_at + step per arrival, and a cancelled timeout per arrival.
void replay_event_queue(const Workload& w, double clock_ns, LayerMetrics& out);

/// One-way InMemoryTransport send -> receive between two threads.
void measure_mailbox_hop(LayerMetrics& out);

/// Counter increments and request-size histogram observations per request.
void replay_registry(const Workload& w, LayerMetrics& out);

/// RSS growth per resident entry while a standalone store fills. Run it
/// before anything else so that freed heap does not hide the growth.
[[nodiscard]] double measure_bytes_per_entry();

}  // namespace perfbench
