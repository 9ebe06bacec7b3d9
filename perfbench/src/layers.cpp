#include "layers.h"

#include <cmath>
#include <list>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/inmemory_transport.h"
#include "ea/contention.h"
#include "event/event_queue.h"
#include "group/cache_group.h"
#include "net/transport.h"
#include "obs/metric_registry.h"
#include "storage/cache_store.h"

namespace perfbench {

using namespace eacache;

namespace {

/// Receives values computed only to be timed, so they are not optimized away.
volatile double g_sink = 0.0;

/// Keeps a loop's stores to memory from being folded across iterations.
inline void clobber_memory() { asm volatile("" : : : "memory"); }

/// Mean per-call time of `total_ns` over `calls`, less the clock's own cost.
double per_call(double total_ns, std::uint64_t calls, double clock_ns) {
  return calls == 0 ? 0.0 : total_ns / static_cast<double>(calls) - clock_ns;
}

/// Byte-budgeted LRU written independently of src/storage: the oracle the
/// CacheStore replay's hits are checked against. Documents larger than the
/// whole budget are never admitted.
class ReferenceLru {
 public:
  explicit ReferenceLru(Bytes capacity) : capacity_(capacity) {}

  /// Returns true on a hit; on a miss admits the document, evicting from
  /// the least recently used end until it fits.
  bool access(DocumentId id, Bytes size) {
    const auto it = index_.find(id);
    if (it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    if (size > capacity_) return false;
    while (used_ + size > capacity_) {
      used_ -= order_.back().second;
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    order_.emplace_front(id, size);
    index_.emplace(id, order_.begin());
    used_ += size;
    return false;
  }

 private:
  Bytes capacity_;
  Bytes used_ = 0;
  std::list<std::pair<DocumentId, Bytes>> order_;
  std::unordered_map<DocumentId, std::list<std::pair<DocumentId, Bytes>>::iterator> index_;
};

/// Peers a local miss at each proxy probes: siblings plus the parent.
std::vector<std::vector<ProxyId>> probe_targets(const Topology& topology) {
  std::vector<std::vector<ProxyId>> targets(topology.num_proxies());
  for (const ProxyId p : topology.client_facing()) {
    targets[p] = topology.siblings_of(p);
    if (const auto parent = topology.parent_of(p)) targets[p].push_back(*parent);
  }
  return targets;
}

}  // namespace

StorageReplay replay_storage(const Workload& w, double clock_ns, LayerMetrics& out) {
  const Topology topology = topology_from(w.group);
  const std::vector<Bytes> budgets = cache_budgets(w.group, topology.num_proxies());
  struct Proxy {
    std::unique_ptr<CacheStore> store;
    std::unique_ptr<ReferenceLru> reference;
    std::unique_ptr<ContentionEstimator> victims_only;  // fed the victims alone
    std::unique_ptr<ContentionEstimator> with_queries;  // victims and age queries
    double brute_age_sum_ms = 0.0;
    std::uint64_t victims = 0;
  };
  std::vector<Proxy> proxies(topology.num_proxies());
  for (const ProxyId p : topology.client_facing()) {
    proxies[p].store = std::make_unique<CacheStore>(budgets[p], make_policy(PolicyKind::kLru));
    proxies[p].reference = std::make_unique<ReferenceLru>(budgets[p]);
    proxies[p].victims_only = std::make_unique<ContentionEstimator>(AgeForm::kLru, w.group.window);
    proxies[p].with_queries = std::make_unique<ContentionEstimator>(AgeForm::kLru, w.group.window);
  }

  // The EA layer's operation stream: each victim as it is evicted and one
  // age query per request at the home proxy, in trace order.
  struct EaStep {
    ProxyId proxy;
    bool query;
    TimePoint at;
    EvictionRecord victim;
  };
  std::vector<EaStep> ea_steps;
  ea_steps.reserve(2 * w.full.trace.size());

  StorageReplay replay;
  double lookup_ns = 0, touch_ns = 0, admit_ns = 0;
  std::uint64_t touches = 0, admits = 0, evictions = 0;
  for (const Request& r : w.full.trace.requests) {
    const ProxyId home = home_proxy_in(topology, r.user);
    Proxy& proxy = proxies[home];
    const std::uint64_t t0 = now_ns();
    const bool present = proxy.store->contains(r.document);
    const std::uint64_t t1 = now_ns();
    lookup_ns += static_cast<double>(t1 - t0);
    if (present) {
      (void)proxy.store->touch(r.document, r.at);
      touch_ns += static_cast<double>(now_ns() - t1);
      ++touches;
    } else {
      const auto victims = proxy.store->admit(Document{r.document, r.size, 0}, r.at);
      admit_ns += static_cast<double>(now_ns() - t1);
      ++admits;
      if (victims) {
        for (const EvictionRecord& victim : *victims) {
          ea_steps.push_back({home, false, r.at, victim});
          proxy.brute_age_sum_ms +=
              static_cast<double>((victim.evict_time - victim.last_hit_time).count());
          ++proxy.victims;
          ++evictions;
        }
      }
    }
    if (proxy.reference->access(r.document, r.size)) ++replay.reference_hits;
    ea_steps.push_back({home, true, r.at, EvictionRecord{}});
  }

  // The EA calls cost a few nanoseconds each, less than a clock read, so
  // they are timed as whole loops: the victims alone, then victims and
  // queries together; the difference is the queries' share.
  const std::uint64_t a0 = now_ns();
  for (const EaStep& step : ea_steps) {
    if (!step.query) proxies[step.proxy].victims_only->on_eviction(step.victim);
  }
  const std::uint64_t a1 = now_ns();
  double sink = 0.0;
  for (const EaStep& step : ea_steps) {
    ContentionEstimator& estimator = *proxies[step.proxy].with_queries;
    if (!step.query) {
      estimator.on_eviction(step.victim);
    } else if (const ExpAge age = estimator.cache_expiration_age(step.at); !age.is_infinite()) {
      sink += age.millis();
    }
  }
  const std::uint64_t a2 = now_ns();
  g_sink = sink;

  for (const Proxy& proxy : proxies) {
    if (!proxy.store) continue;
    replay.store_hits += proxy.store->stats().hits;
    if (proxy.victims > 0) {
      replay.ages.emplace_back(proxy.victims_only->lifetime_average().millis(),
                               proxy.brute_age_sum_ms / static_cast<double>(proxy.victims));
    }
  }
  const std::uint64_t n = w.full.trace.size();
  out["storage.lookup_ns"] = per_call(lookup_ns, n, clock_ns);
  out["storage.touch_ns"] = per_call(touch_ns, touches, clock_ns);
  out["storage.admit_ns"] = per_call(admit_ns, admits, clock_ns);
  out["storage.evictions_per_req"] = static_cast<double>(evictions) / static_cast<double>(n);
  out["ea.on_eviction_ns"] = per_call(static_cast<double>(a1 - a0), evictions, 0.0);
  out["ea.age_query_ns"] =
      per_call(static_cast<double>(a2 - a1) - static_cast<double>(a1 - a0), n, 0.0);
  return replay;
}

void check_storage(Checks& checks, const StorageReplay& replay) {
  checks.expect(replay.store_hits == replay.reference_hits,
                "storage: CacheStore LRU hits " + std::to_string(replay.store_hits) +
                    " != reference LRU hits " + std::to_string(replay.reference_hits));
  checks.expect(!replay.ages.empty(), "storage: the replay evicted nothing");
  for (const auto& [cumulative, brute] : replay.ages) {
    checks.expect(std::abs(cumulative - brute) <= 1e-9 * std::max(1.0, std::abs(brute)),
                  "ea: cumulative age " + std::to_string(cumulative) +
                      " ms != brute-force mean " + std::to_string(brute) + " ms");
  }
}

void replay_icp_answers(const Workload& w, double clock_ns, LayerMetrics& out) {
  CacheGroup group(w.group);
  const std::vector<std::vector<ProxyId>> targets = probe_targets(group.topology());
  double answer_ns = 0.0;
  std::uint64_t probes = 0, positive = 0;
  for (const Request& r : w.full.trace.requests) {
    const ProxyId home = group.home_proxy(r.user);
    if (!group.proxy(home).store().contains(r.document)) {
      for (const ProxyId peer : targets[home]) {
        const std::uint64_t t0 = now_ns();
        const bool hit = group.proxy(peer).answer_icp(r.document);
        answer_ns += static_cast<double>(now_ns() - t0);
        ++probes;
        if (hit) ++positive;
      }
    }
    (void)group.serve(r);
  }
  out["proxy.icp_answer_ns"] = per_call(answer_ns, probes, clock_ns);
  out["group.icp_hit_ratio"] =
      probes == 0 ? 0.0 : static_cast<double>(positive) / static_cast<double>(probes);
}

void replay_transport(const Workload& w, const TransportStats& run_stats, Checks& checks,
                      LayerMetrics& out) {
  const Topology topology = topology_from(w.group);
  const std::size_t caches = topology.num_proxies();
  MetricRegistry registry;
  Transport transport(w.group.wire);
  transport.bind_registry(&registry, caches);
  const bool piggyback = w.group.placement != PlacementKind::kAdHoc;
  const std::optional<ExpAge> age =
      piggyback ? std::optional<ExpAge>(ExpAge::from_millis(1.0)) : std::nullopt;

  // Spread the run's message counts evenly over its requests, in order.
  const std::uint64_t n = w.full.trace.size();
  const auto share = [n](std::uint64_t total, std::uint64_t i) {
    return total * (i + 1) / n - total * i / n;
  };
  const std::uint64_t start = now_ns();
  for (std::uint64_t i = 0; i < n; ++i) {
    const Request& r = w.full.trace.requests[i];
    const ProxyId from = home_proxy_in(topology, r.user);
    for (std::uint64_t k = share(run_stats.icp_queries, i); k > 0; --k) {
      transport.record_icp_query({from, static_cast<ProxyId>((from + k) % caches), r.document});
    }
    for (std::uint64_t k = share(run_stats.icp_replies, i); k > 0; --k) {
      transport.record_icp_reply(
          {static_cast<ProxyId>((from + k) % caches), from, r.document, false});
    }
    for (std::uint64_t k = share(run_stats.http_requests, i); k > 0; --k) {
      transport.record_http_request(
          {from, static_cast<ProxyId>((from + k) % caches), r.document, age});
    }
    for (std::uint64_t k = share(run_stats.http_responses, i); k > 0; --k) {
      HttpResponse response;
      response.from = static_cast<ProxyId>((from + k) % caches);
      response.to = from;
      response.document = r.document;
      response.body_size = r.size;
      response.responder_age = age;
      transport.record_http_response(response);
    }
    for (std::uint64_t k = share(run_stats.origin_fetches, i); k > 0; --k) {
      transport.record_origin_fetch(from, r.size);
    }
  }
  const double elapsed = static_cast<double>(now_ns() - start);
  const TransportStats& s = transport.stats();
  checks.expect(s.icp_queries == run_stats.icp_queries && s.icp_replies == run_stats.icp_replies &&
                    s.http_requests == run_stats.http_requests &&
                    s.http_responses == run_stats.http_responses &&
                    s.origin_fetches == run_stats.origin_fetches,
                "net: transport replay recorded a different message mix than the run");
  const std::uint64_t calls = s.icp_queries + s.icp_replies + s.http_requests +
                              s.http_responses + s.origin_fetches;
  out["net.transport_record_ns"] = per_call(elapsed, calls, 0.0);
  out["net.messages_per_req"] =
      static_cast<double>(run_stats.total_messages()) / static_cast<double>(n);
  out["net.bytes_per_req"] =
      static_cast<double>(run_stats.total_bytes()) / static_cast<double>(n);
}

void replay_event_queue(const Workload& w, double clock_ns, LayerMetrics& out) {
  // The pipeline's pattern: every arrival is scheduled and fired, and every
  // discovery timeout is scheduled and then cancelled when replies arrive.
  const Duration timeout = w.group.pipeline.icp_timeout;
  EventQueue queue;
  std::uint64_t fired = 0;
  const EventFn arrive = [&fired](TimePoint) { ++fired; };
  const EventFn expire = [](TimePoint) {};
  double schedule_fire_ns = 0.0, cancel_ns = 0.0;
  for (const Request& r : w.full.trace.requests) {
    const std::uint64_t t0 = now_ns();
    queue.schedule_at(r.at, arrive);
    queue.step();
    const std::uint64_t t1 = now_ns();
    const EventId pending = queue.schedule_at(r.at + timeout, expire);
    const std::uint64_t t2 = now_ns();
    queue.cancel(pending);
    cancel_ns += static_cast<double>(now_ns() - t2);
    schedule_fire_ns += static_cast<double>(t1 - t0);
  }
  const std::uint64_t n = w.full.trace.size();
  if (fired != n) throw std::logic_error("event replay fired the wrong number of events");
  out["event.schedule_fire_ns"] = per_call(schedule_fire_ns, n, clock_ns);
  out["event.cancel_ns"] = per_call(cancel_ns, n, clock_ns);
}

void measure_mailbox_hop(LayerMetrics& out) {
  constexpr int kPings = 20'000;
  static constexpr std::chrono::seconds kTimeout{5};
  InMemoryTransport wire(2);
  std::thread echo([&wire] {
    for (;;) {
      const auto message = wire.receive(1, kTimeout);
      if (!message || message->kind == WireMessage::Kind::kShutdown) return;
      wire.send(0, *message);
    }
  });
  std::vector<double> round_trips;
  round_trips.reserve(kPings);
  WireMessage ping;
  ping.kind = WireMessage::Kind::kClientRequest;
  for (int i = 0; i < kPings; ++i) {
    ping.request_id = static_cast<std::uint64_t>(i) + 1;
    const std::uint64_t t0 = now_ns();
    wire.send(1, ping);
    const auto pong = wire.receive(0, kTimeout);
    if (!pong) break;
    round_trips.push_back(static_cast<double>(now_ns() - t0));
  }
  WireMessage bye;
  bye.kind = WireMessage::Kind::kShutdown;
  wire.send(1, bye);
  echo.join();
  if (round_trips.size() != static_cast<std::size_t>(kPings)) {
    throw std::runtime_error("mailbox ping-pong timed out");
  }
  out["core.mailbox_hop_ns"] = median(std::move(round_trips)) / 2.0;
}

void replay_registry(const Workload& w, LayerMetrics& out) {
  MetricRegistry registry;
  const MetricRegistry::Counter requests = registry.counter("group.requests");
  const MetricRegistry::HistogramHandle sizes =
      registry.histogram("group.request_bytes", 0.0, static_cast<double>(kMiB), 64);
  const auto& trace = w.full.trace.requests;
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    requests.inc();
    clobber_memory();
  }
  const std::uint64_t t1 = now_ns();
  for (const Request& r : trace) {
    sizes.observe(static_cast<double>(r.size));
    clobber_memory();
  }
  const std::uint64_t t2 = now_ns();
  if (requests.value() != trace.size()) throw std::logic_error("registry replay lost counts");
  out["obs.counter_inc_ns"] = per_call(static_cast<double>(t1 - t0), trace.size(), 0.0);
  out["obs.histogram_observe_ns"] = per_call(static_cast<double>(t2 - t1), trace.size(), 0.0);
}

double measure_bytes_per_entry() {
  constexpr std::uint64_t kEntries = 200'000;
  CacheStore store(Bytes{1} << 40, make_policy(PolicyKind::kLru));
  const std::uint64_t before = current_rss_bytes();
  for (std::uint64_t id = 0; id < kEntries; ++id) {
    (void)store.admit(Document{id, 4 * kKiB, 0}, kSimEpoch);
  }
  const std::uint64_t after = current_rss_bytes();
  return static_cast<double>(after - before) / static_cast<double>(store.resident_count());
}

}  // namespace perfbench
