#include "svc/metrics.hpp"

namespace elect::svc {

service_report service_metrics::snapshot() const {
  service_report report;
  report.shards.reserve(shards_.size());
  for (const shard_counters& s : shards_) {
    shard_report sr;
    sr.acquires = s.acquires.load(std::memory_order_relaxed);
    sr.wins = s.wins.load(std::memory_order_relaxed);
    sr.releases = s.releases.load(std::memory_order_relaxed);
    sr.expirations = s.expirations.load(std::memory_order_relaxed);
    sr.renewals = s.renewals.load(std::memory_order_relaxed);
    sr.stale_fences = s.stale_fences.load(std::memory_order_relaxed);
    sr.forced_releases = s.forced_releases.load(std::memory_order_relaxed);
    report.acquires += sr.acquires;
    report.wins += sr.wins;
    report.releases += sr.releases;
    report.expirations += sr.expirations;
    report.renewals += sr.renewals;
    report.stale_fences += sr.stale_fences;
    report.forced_releases += sr.forced_releases;
    report.shards.push_back(sr);
  }
  report.rejected_acquires =
      rejected_acquires_.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < strategies_.size(); ++k) {
    report.strategies[k].acquires =
        strategies_[k].acquires.load(std::memory_order_relaxed);
    report.strategies[k].wins =
        strategies_[k].wins.load(std::memory_order_relaxed);
  }
  report.fast_path.hits = fast_path_hits_.load(std::memory_order_relaxed);
  report.fast_path.conflicts =
      fast_path_conflicts_.load(std::memory_order_relaxed);
  report.fast_path.fallbacks =
      fast_path_fallbacks_.load(std::memory_order_relaxed);
  report.fast_path.acquires =
      report.strategies[static_cast<std::size_t>(
                            election::strategy_kind::adaptive)]
          .acquires;
  report.short_circuit_losses =
      short_circuit_losses_.load(std::memory_order_relaxed);
  report.acquire_p50_ms = acquire_latency_.quantile(0.50) / 1e6;
  report.acquire_p99_ms = acquire_latency_.quantile(0.99) / 1e6;
  report.acquire_latency_count = acquire_latency_.count();
  report.acquire_latency_sum_us =
      static_cast<double>(acquire_latency_.sum_ns()) / 1e3;
  report.acquire_latency_buckets = acquire_latency_.bucket_counts();
  report.trace = obs::counters();
  return report;
}

void service_report::describe(obs::series_writer& w) const {
  w.counter("acquires", "Acquire attempts served.", acquires);
  w.counter("wins", "Acquire attempts that won their epoch.", wins);
  w.counter("releases", "Voluntary releases.", releases);
  w.counter("expirations", "Leases ended by the expiry sweeper.",
            expirations);
  w.counter("renewals", "Successful lease renewals.", renewals);
  w.counter("stale_fences", "Lease ops fenced as stale (zombies).",
            stale_fences);
  w.counter("forced_releases", "Epochs ended by admin force-release.",
            forced_releases);
  w.counter("rejected_acquires", "Acquires turned away by shutdown.",
            rejected_acquires);
  w.rows(
      {.key = "strategies", .label = "strategy"}, strategies.size(),
      [](std::size_t k) {
        return std::string(
            election::to_string(static_cast<election::strategy_kind>(k)));
      },
      [&](std::size_t k) {
        w.counter("acquires", "Acquire attempts per election strategy.",
                  strategies[k].acquires);
        w.counter("wins", "Epoch wins per election strategy.",
                  strategies[k].wins);
      });
  w.section("fast_path", [&] {
    w.counter("hits", "Epochs granted by the adaptive CAS fast path.",
              fast_path.hits);
    w.counter("conflicts", "Fast-path attempts that lost outright.",
              fast_path.conflicts);
    w.counter("fallbacks", "Fast-path attempts that ran the protocol.",
              fast_path.fallbacks);
    w.gauge("hit_rate", "Fast-path hits per adaptive-strategy acquire.",
            fast_path.hit_rate());
  });
  w.counter("short_circuit_losses",
            "Protocol-path acquires lost before running the protocol.",
            short_circuit_losses);
  w.gauge("acquire_p50_ms", "Median acquire latency (ms).", acquire_p50_ms);
  w.gauge("acquire_p99_ms", "p99 acquire latency (ms).", acquire_p99_ms);
  w.histogram("acquire_latency", "Acquire latency (submit to decision).",
              {.count = acquire_latency_count,
               .sum_us = acquire_latency_sum_us,
               .buckets = acquire_latency_buckets,
               .p50_ms = acquire_p50_ms,
               .p99_ms = acquire_p99_ms});
  std::uint64_t keys = 0;
  for (const shard_report& shard : shards) keys += shard.keys;
  w.gauge("keys", "Registered election keys.", keys);
  w.gauge("participated_entries", "Participated-map entries in the pool.",
          participated_entries);
  w.counter("total_messages", "Protocol messages sent in the node pool.",
            total_messages);
  w.counter("mailbox_pushes", "Transport mailbox pushes in the node pool.",
            mailbox_pushes);
  w.gauge("messages_per_acquire", "Protocol messages per acquire.",
          messages_per_acquire);
  w.gauge("mean_communicate_calls", "Mean communicate calls per node.",
          mean_communicate_calls);
  w.gauge("max_communicate_calls", "Most communicate calls by one node.",
          max_communicate_calls);
  w.section("watch", [&] {
    w.gauge("active", "Live watch subscriptions.",
            watch.active);
    w.counter("published", "Watch events enqueued.", watch.published);
    w.counter("delivered", "Watch callbacks completed.", watch.delivered);
    w.counter("dropped", "Watch events dropped at the queue bound.",
              watch.dropped);
  });
  w.section("trace", [&] {
    w.counter("minted", "Trace ids minted.", trace.minted);
    w.counter("spans", "Trace spans recorded.", trace.spans);
    w.counter("slow_captured", "Slow-request dumps captured.",
              trace.slow_captured);
    w.counter("slow_evicted", "Slow-request dumps evicted.",
              trace.slow_evicted);
  });
  w.section("journal", [&] {
    w.counter("appended", "Events appended to the journal.",
              journal.appended);
    w.counter("evicted", "Journal records evicted from the ring.",
              journal.evicted);
    w.counter("flushed", "Journal records written to the JSONL sink.",
              journal.flushed);
    w.counter("flush_errors", "Journal records the sink failed to take.",
              journal.flush_errors);
  });
  w.splice("net", net_json);
  w.splice("repl", repl_json);
  w.rows(
      {.key = "shards", .label = "shard", .id_key = "index"}, shards.size(),
      [](std::size_t i) { return std::to_string(i); },
      [&](std::size_t i) {
        const shard_report& s = shards[i];
        w.counter("acquires", "Acquire attempts per shard.", s.acquires);
        w.counter("wins", "Epoch wins per shard.", s.wins);
        w.counter("releases", "Voluntary releases per shard.", s.releases);
        w.counter("expirations", "Lease expiries per shard.", s.expirations);
        w.counter("renewals", "Lease renewals per shard.", s.renewals);
        w.counter("stale_fences", "Fenced lease ops per shard.",
                  s.stale_fences);
        w.counter("forced_releases", "Admin force-releases per shard.",
                  s.forced_releases);
        w.gauge("keys", "Election keys per shard.",
                s.keys);
      });
}

std::string service_report::to_json() const {
  obs::series_writer w(obs::series_writer::format::json);
  describe(w);
  return w.take();
}

}  // namespace elect::svc
