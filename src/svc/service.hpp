// elect::svc — a sharded multi-instance election service on the mt
// runtime.
//
// The paper's leader_elect (Figure 6) is a one-shot test-and-set. This
// service turns it into a long-running facility: many logical elections
// (one per string key) multiplexed over one fixed mt::cluster node pool.
//
//   * Every pool node runs a *driver* — a long-lived protocol coroutine
//     that pulls acquire jobs from a per-node queue and runs one
//     leader_elect instance per job. Drivers are woken through the
//     cluster's poke/idle-hook path, so job handoff rides the same event
//     loop that serves protocol messages.
//   * The instance registry (registry.hpp) shards keys across lock
//     stripes and lazily maps each key to its current (election_id,
//     epoch). release() bumps the epoch, giving repeated-TAS semantics.
//   * Which election scheme decides an epoch is a pluggable *strategy*
//     (election/strategy.hpp): the paper's full Figure-6 protocol, the
//     cheaper sifter_pill / doorway_only rungs of the algorithm ladder,
//     or `adaptive` — a contention-steered policy that grants
//     uncontended epochs through an epoch-fenced CAS in the registry
//     (no distributed protocol at all) and falls back to the full
//     protocol the moment contention is observed. The service carries a
//     default strategy plus per-key overrides in service_config; the
//     registry's grant-mode fencing guarantees the fast path and the
//     protocol path can never both grant one epoch.
//   * Ownership is a *lease*: winning an acquire grants the key until
//     `lease_ttl` elapses; the holder extends it with renew(). A sweeper
//     thread force-releases expired leases by bumping the epoch, so a
//     crashed client cannot wedge a key — blocked acquirers wake into a
//     fresh election. The epoch is the fencing token: a zombie's late
//     release()/renew() with its old epoch returns `stale_epoch` and has
//     no effect on the new holder.
//   * Client sessions are bound round-robin to pool nodes. acquire jobs
//     from different sessions on different nodes contend in the real
//     protocol; a second job on a node that already participated in an
//     instance loses locally (test-and-set is one invocation per
//     processor per instance).
//   * Quorum replication spans the whole pool: every node serves
//     propagate/collect for every instance, so elections tolerate up to
//     ceil(pool/2)-1 slow nodes exactly as the paper's model promises.
//
// Threading contract: session calls (try_acquire / acquire / release /
// renew) block the *calling* OS thread; protocol work happens on the
// pool threads. stop() is safe to call while clients are mid-call:
// in-flight acquires drain or come back with `rejected` set, and blocked
// acquirers are woken — nothing aborts and nothing hangs.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "election/strategy.hpp"
#include "engine/task.hpp"
#include "mt/cluster.hpp"
#include "obs/journal.hpp"
#include "svc/metrics.hpp"
#include "svc/registry.hpp"
#include "svc/watch.hpp"

namespace elect::svc {

struct service_config {
  /// Node pool size (one OS thread per node).
  int nodes = 8;
  /// Registry shard count (lock stripes + metrics partitions).
  int shards = 4;
  std::uint64_t seed = 1;
  /// Coalesce same-destination messages in the transport.
  bool batch_transport = true;
  /// Per-election round safety valve (see leader_elect_params).
  std::int64_t max_rounds = 1'000'000;
  /// Lease granted to a winning acquire, in milliseconds. 0 means leases
  /// never expire (PR-1 behaviour: the winner must release explicitly).
  std::uint64_t lease_ttl_ms = 0;
  /// How often the sweeper scans for expired leases. 0 derives
  /// max(1, lease_ttl_ms / 4). Ignored when lease_ttl_ms == 0 (no
  /// sweeper thread is started).
  std::uint64_t sweep_interval_ms = 0;
  /// Per-node participated-map size that triggers a stale-entry eviction
  /// pass (see service::worker::participated).
  std::size_t participated_prune_threshold = 1024;
  /// Election strategy used for keys without an override. `full` is the
  /// paper's Figure-6 protocol (strongest guarantees); see
  /// election/strategy.hpp for the ladder and `adaptive`.
  election::strategy_kind default_strategy = election::strategy_kind::full;
  /// Per-key strategy overrides (exact key match beats the default).
  std::unordered_map<std::string, election::strategy_kind> key_strategies{};
  /// Traced requests slower than this auto-capture a span dump naming
  /// the stalled phase (obs::maybe_capture_slow). 0 disables. Note the
  /// tracer threshold is process-global; the last service constructed
  /// with a nonzero value wins.
  std::uint64_t slow_request_threshold_ms = 0;
  /// Journal typed events (elected / released / expired / stale_fence /
  /// watch_drop, plus the server's disconnect_reclaim) to a bounded
  /// in-memory ring readable via journal()->tail().
  bool journal_events = false;
  /// Optional JSONL sink for the journal (append-only file); requires
  /// journal_events.
  std::string journal_path{};
  /// In-memory journal ring capacity (and the sink's backlog bound).
  std::size_t journal_capacity = 4096;
  /// Record every registry mutation to the per-shard command log
  /// (src/cmd/): the replayable stream behind registry().snapshot() /
  /// collect_commands(). Off by default — recording copies each
  /// command (key string included) into the log, which the adaptive
  /// fast path otherwise never pays for.
  bool record_commands = false;
  /// First session id this service hands out. Cluster members set a
  /// disjoint per-node base (repl: self << 24) so a lease replicated
  /// from another member's log can never collide with a live local
  /// session — a renew/release of a failed-over lease must fence
  /// (stale/not_leader), not accidentally match a stranger.
  int session_id_base = 0;

  /// Check the configuration without constructing a service: empty on
  /// success, otherwise a description of the first problem found. The
  /// service constructor runs this and aborts with the message — callers
  /// that would rather report than crash (the elect_server binary, test
  /// harnesses) validate first.
  [[nodiscard]] std::optional<std::string> validate() const;
};

/// Outcome of one acquire attempt (one leader_elect invocation).
struct acquire_result {
  bool won = false;
  /// The service refused the call because stop() ran first or
  /// concurrently. No election happened; won is false.
  bool rejected = false;
  /// try_acquire_for only: the timeout elapsed before the key's epoch
  /// moved; the last attempt's loss is reported alongside.
  bool timed_out = false;
  /// Set only by net::client, alongside rejected: the connection to the
  /// remote service was severed underneath the call (peer crash,
  /// network fault) rather than closed by this process. The local
  /// service never sets it. See lease_status::connection_lost.
  bool connection_lost = false;
  /// The epoch was granted through the adaptive CAS fast path — no
  /// distributed election ran for this attempt.
  bool fast_path = false;
  /// The epoch of the instance contended. Losers pass this to
  /// wait_for_epoch_above to sleep until the holder releases or expires;
  /// winners pass it back to renew()/release() as the fencing token.
  std::uint64_t epoch = 0;
  election::election_id instance{0};
  std::uint64_t latency_ns = 0;
  /// Winner only: when the lease lapses unless renewed
  /// (time_point::max() when lease_ttl_ms == 0).
  std::chrono::steady_clock::time_point lease_deadline{};
};

class service {
 public:
  explicit service(service_config config);
  ~service();

  service(const service&) = delete;
  service& operator=(const service&) = delete;

  /// A client handle bound to one pool node. Cheap to copy; all calls
  /// block the calling thread until the service answers.
  class session {
   public:
    /// One-shot test-and-set on `key`'s current instance: returns won or
    /// lost. Exactly one concurrent acquirer per (key, epoch) wins.
    acquire_result try_acquire(const std::string& key);

    /// Blocking acquire: contend, and on loss sleep until the holder
    /// releases (or its lease expires), then contend in the fresh
    /// instance. Returns the winning attempt's result — or, if the
    /// service stops while we wait, a result with `rejected` set.
    acquire_result acquire(const std::string& key);

    /// Bounded blocking acquire: like acquire(), but give up once
    /// `timeout` has elapsed — the result then has `timed_out` set (and
    /// `won` false). The timeout bounds the sleeps between attempts; an
    /// attempt already in flight when it expires still completes (and
    /// its win is returned). stop() wakes timed waiters immediately
    /// with `rejected`, same as acquire().
    acquire_result try_acquire_for(const std::string& key,
                                   std::chrono::milliseconds timeout);

    /// Give up leadership of `key` if this session currently holds it.
    /// Returns the fencing verdict; a session that lost the key to lease
    /// expiry gets `not_leader`/`stale_epoch` back instead of aborting.
    lease_status release(const std::string& key);

    /// Fenced release: only succeeds while `epoch` (from the winning
    /// acquire_result) is still current. Use this form when the same
    /// session may have re-acquired the key after an expiry.
    lease_status release(const std::string& key, std::uint64_t epoch);

    /// Extend the lease on `key` by the configured TTL. `stale_epoch`
    /// means the lease already expired and the key moved on — the caller
    /// must stop acting as leader.
    lease_status renew(const std::string& key, std::uint64_t epoch);

    /// Gracefully drop every key this session holds (client going away
    /// politely, as opposed to crashing and waiting out the TTL).
    /// Returns the number of keys released.
    std::size_t disconnect();

    /// Fenced release on behalf of this session's dead connection (the
    /// network edge reclaiming a late win on a closed socket). Same
    /// verdicts as release(key, epoch); recorded/journaled as a
    /// disconnect reclaim rather than a voluntary release.
    lease_status reclaim(const std::string& key, std::uint64_t epoch);

    /// disconnect(), but for a connection that died rather than said
    /// goodbye: every held lease ends as a disconnect reclaim. Returns
    /// the number of keys reclaimed.
    std::size_t reclaim_all();

    /// Snapshot of the keys this session currently holds. Introspection
    /// for embedders (the network front-end accounts per-connection
    /// leases with it); leases may expire between snapshot and use.
    [[nodiscard]] std::vector<std::string> held_keys() const;

    [[nodiscard]] int id() const noexcept { return id_; }
    [[nodiscard]] process_id node() const noexcept { return pid_; }

   private:
    friend class service;
    session(service& owner, int id, process_id pid)
        : owner_(&owner), id_(id), pid_(pid) {}

    service* owner_;
    int id_;
    process_id pid_;
  };

  /// Open a session, bound round-robin to a pool node. Aborts if the
  /// service already stopped — embedders racing shutdown (the network
  /// front-end accepting one last connection) use try_connect().
  [[nodiscard]] session connect();

  /// Like connect(), but returns empty instead of aborting once stop()
  /// has run or is running.
  [[nodiscard]] std::optional<session> try_connect();

  /// Has stop() run (or started)? Advisory — a false answer may be
  /// stale by the time the caller acts on it.
  [[nodiscard]] bool stopped() const noexcept {
    return stopped_.load(std::memory_order_relaxed);
  }

  /// Drain all queued jobs, stop the drivers and the lease sweeper, wake
  /// blocked acquirers (they come back `rejected`), and join the pool.
  /// Called by the destructor; idempotent and safe to race with client
  /// calls.
  void stop();

  [[nodiscard]] instance_registry& registry() noexcept { return registry_; }
  [[nodiscard]] const service_config& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::chrono::milliseconds lease_ttl() const noexcept {
    return std::chrono::milliseconds(config_.lease_ttl_ms);
  }

  /// Run one expiry sweep now (what the sweeper thread does on its
  /// interval). Exposed for tests and for embedders that drive their own
  /// clock. Returns the number of leases expired.
  std::size_t sweep_now();

  /// Admin force-release with accounting: ends `key`'s current epoch
  /// regardless of holder (registry force_release) and counts the kick
  /// in the forced_releases metric. The network front-end routes the
  /// admin_force_release wire op through here.
  lease_status force_release(const std::string& key);

  /// Subscribe to `key`'s leader transitions (elected / released /
  /// expired / force_released). Returns the subscription id, 0 once the
  /// service stopped.
  /// Delivery semantics per svc/watch.hpp: asynchronous on the hub's
  /// notifier thread, per-key ordering, no cross-key ordering; a
  /// transition is observable within the lease TTL + sweep interval of
  /// the holder misbehaving (expiry is what bounds a silent crash).
  [[nodiscard]] std::uint64_t watch(const std::string& key,
                                    watch_hub::callback fn);

  /// Cancel a subscription; after return the callback never runs again.
  void unwatch(std::uint64_t id);

  /// Snapshot of service + pool metrics (per-shard counters, latency
  /// quantiles, messages per acquire, communicate-call complexity).
  [[nodiscard]] service_report report() const;

  /// The structured event journal, or nullptr when
  /// config.journal_events is off. The journal is a rendering of the
  /// registry's command stream (one record per non-renewal command);
  /// the pointer stays valid for the service's lifetime.
  [[nodiscard]] obs::journal* journal() noexcept { return journal_.get(); }

  /// Install the replication commit gate (cluster mode). After every
  /// locally applied mutation the gate is called with the key the op
  /// touched (empty key = the op may have spanned every shard) and must
  /// return true once the mutation is quorum-committed. A false return
  /// converts the op's ack into `connection_lost`: a primary that lost
  /// its quorum must not confirm grants *or renewals* — that refusal is
  /// what demotes a zombie's clients before a fenced successor can
  /// double-grant. Install before serving traffic; swapping the gate is
  /// not synchronized against in-flight calls.
  void set_commit_gate(std::function<bool(const std::string&)> gate) {
    commit_gate_ = std::move(gate);
  }

  /// Suspend/resume the lease-expiry sweeper without tearing down its
  /// thread. Cluster followers suspend it — only the primary decides
  /// expiry (an `expired` command the followers then replicate), so a
  /// follower sweeping locally would fork the replica state — and the
  /// node resumes it on promotion. sweep_now() remains callable either
  /// way (tests and embedders drive their own clock through it).
  void set_sweeper_suspended(bool suspended) noexcept {
    sweeper_suspended_.store(suspended, std::memory_order_relaxed);
  }

 private:
  /// One queued acquire. The client thread owns the struct (on its
  /// stack) and sleeps on `done`; the node's driver fills `result`.
  struct job {
    std::string key;
    int session_id = -1;
    bool shutdown = false;
    /// Which election scheme decides this attempt (resolved at submit).
    election::strategy_kind kind = election::strategy_kind::full;
    /// The (instance, epoch) the attempt registered against on the
    /// client thread; the driver contends exactly this epoch (and loses
    /// cheaply if the key moved on by the time the job is served).
    instance_entry entry;
    /// The submitting client's trace id (0 = untraced); the driver
    /// records its phases against it.
    std::uint64_t trace = 0;
    std::chrono::steady_clock::time_point submitted;

    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    acquire_result result;
  };

  /// Per-node job queue + the parked driver coroutine handle. The queue
  /// is touched by client threads and the node thread; `current` and
  /// `participated` are node-thread-only.
  struct worker {
    std::mutex mutex;
    std::deque<job*> queue;
    /// Set (under mutex) when the shutdown job is queued. Later submits
    /// are turned away (submit() returns false and the acquire comes
    /// back `rejected`) instead of enqueueing behind a driver that will
    /// never serve them.
    bool draining = false;
    std::coroutine_handle<> parked;
    job* current = nullptr;
    /// Last instance this node invoked leader_elect on, per key (TAS is
    /// one invocation per processor per instance). Keyed by election key
    /// rather than instance id so the map is bounded by the keyspace, not
    /// by the ever-growing epoch count: once a key's epoch bumps, its old
    /// instance can never be handed out again, so only the latest matters.
    /// When it outgrows config.participated_prune_threshold the driver
    /// evicts entries whose instance no longer matches the registry
    /// (those can never be consulted again), so churn through many
    /// short-lived keys does not grow node memory forever.
    std::unordered_map<std::string, std::uint32_t> participated;
    /// Size at which the next prune pass fires. Starts at the config
    /// threshold and is re-armed after every pass to twice the surviving
    /// size, so a map full of *live* entries (which a pass cannot evict)
    /// is not re-scanned on every acquire — the scan cost stays
    /// amortized against actual growth.
    std::size_t participated_prune_at = 0;
    /// Mirror of participated.size() readable from other threads
    /// (report(), tests); the map itself is node-thread-only.
    std::atomic<std::size_t> participated_size{0};
  };

  /// Awaitable the driver parks on between jobs; resumed by pump().
  struct next_job {
    worker& w;
    bool await_ready();
    bool await_suspend(std::coroutine_handle<> handle);
    job* await_resume();
  };

  engine::task<std::int64_t> driver(engine::node& node, worker& w);
  /// Strategy deciding `key`'s epochs (per-key override or default).
  [[nodiscard]] election::strategy_kind strategy_for(
      const std::string& key) const;
  /// The protocol object behind `kind` (adaptive resolves to full).
  [[nodiscard]] election::strategy& protocol_for(
      election::strategy_kind kind) const;
  void pump(worker& w);
  /// Enqueue `j` on pid's driver. Returns false (without enqueueing) if
  /// the worker is already draining for shutdown.
  [[nodiscard]] bool submit(process_id pid, job& j);
  acquire_result run_acquire(int session_id, process_id pid,
                             const std::string& key);
  /// Record the metric (and journal a stale_fence) for a fenced
  /// release/renew outcome and pass the status through.
  lease_status count_lease_op(const std::string& key, lease_status status,
                              bool renewal, std::uint64_t epoch);
  /// Run the commit gate (when installed) over a freshly decided
  /// acquire: a won attempt whose grant never commits is reported as
  /// `connection_lost`, not a win.
  [[nodiscard]] acquire_result gate_acquire(acquire_result result,
                                            const std::string& key);
  /// Same for single-key lease ops: an `ok` that never commits becomes
  /// `connection_lost`.
  [[nodiscard]] lease_status gate_lease_op(const std::string& key,
                                           lease_status status);
  /// Multi-key variant (disconnect / reclaim_all): the gate is awaited
  /// for command ordering, but the local count is returned regardless —
  /// the leases already ended here, and if the commit fails this node is
  /// being deposed anyway.
  std::size_t gate_multi_release(std::size_t count);
  void prune_participated(worker& w);
  void sweeper_main();
  /// The registry's command hook: render one mutation into the watch
  /// hub and (when enabled) the journal — the downstream layers are
  /// views of the command stream, not parallel bookkeeping.
  void render_command(const cmd::command& c);

  service_config config_;
  /// Declared before the registry: the registry's command hook targets
  /// the hub and the journal, so both must be constructed first and
  /// destroyed last.
  watch_hub hub_;
  std::unique_ptr<obs::journal> journal_;
  instance_registry registry_;
  service_metrics metrics_;
  /// One shared protocol object per strategy kind (stateless; elect()
  /// runs on the pool threads).
  std::array<std::unique_ptr<election::strategy>,
             election::strategy_kind_count>
      strategies_;
  std::unique_ptr<mt::cluster> pool_;
  std::vector<std::unique_ptr<worker>> workers_;

  std::mutex connect_mutex_;
  int next_session_ = 0;
  std::atomic<bool> stopped_{false};

  /// Replication commit gate (cluster mode); empty in single-node use,
  /// where every mutation is trivially durable the moment it applies.
  std::function<bool(const std::string&)> commit_gate_;
  std::atomic<bool> sweeper_suspended_{false};

  std::thread sweeper_;
  std::mutex sweeper_mutex_;
  std::condition_variable sweeper_cv_;
  bool sweeper_stop_ = false;
};

}  // namespace elect::svc
