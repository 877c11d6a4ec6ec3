// Strategy-parity stress suite: every election strategy (full,
// sifter_pill, doorway_only, adaptive) must satisfy the same TAS
// invariants through the service — unique winner per (key, epoch), solo
// re-election, blocking-handoff mutual exclusion, lease expiry with
// zombie fencing, and the stop()-vs-acquire race. Plus adaptive-specific
// fast-path behaviour, per-key strategy routing, and the election-id
// exhaustion guard. Runs under ThreadSanitizer in CI (test_svc* glob).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "election/strategy.hpp"
#include "svc/registry.hpp"
#include "svc/service.hpp"

namespace elect {
namespace {

using namespace std::chrono_literals;
using election::strategy_kind;

class SvcStrategy : public ::testing::TestWithParam<strategy_kind> {
 protected:
  [[nodiscard]] static svc::service_config config_with(
      strategy_kind kind, svc::service_config base = {}) {
    base.default_strategy = kind;
    return base;
  }
};

TEST_P(SvcStrategy, SoloAcquireWinsAndReelects) {
  svc::service service(config_with(
      GetParam(), {.nodes = 4, .shards = 2, .seed = 13}));
  auto session = service.connect();
  for (std::uint64_t epoch = 0; epoch < 5; ++epoch) {
    const auto result = session.try_acquire("solo");
    ASSERT_TRUE(result.won) << "epoch " << epoch;
    ASSERT_EQ(result.epoch, epoch);
    EXPECT_EQ(service.registry().leader_of("solo"), session.id());
    ASSERT_EQ(session.release("solo", result.epoch), svc::lease_status::ok);
  }
  const auto report = service.report();
  EXPECT_EQ(report.wins, 5u);
  const auto idx = static_cast<std::size_t>(GetParam());
  EXPECT_EQ(report.strategies[idx].acquires, 5u);
  EXPECT_EQ(report.strategies[idx].wins, 5u);
}

TEST_P(SvcStrategy, UniqueWinnerPerKeyUnderConcurrentAcquirers) {
  constexpr int sessions = 6;
  const std::vector<std::string> keys = {"k/0", "k/1", "k/2"};
  svc::service service(config_with(
      GetParam(), {.nodes = sessions, .shards = 4, .seed = 29}));

  std::vector<svc::service::session> handles;
  for (int i = 0; i < sessions; ++i) handles.push_back(service.connect());

  std::vector<std::vector<char>> won(
      keys.size(), std::vector<char>(sessions, 0));
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (int i = 0; i < sessions; ++i) {
    clients.emplace_back([&, i] {
      for (std::size_t k = 0; k < keys.size(); ++k) {
        won[k][static_cast<std::size_t>(i)] =
            handles[static_cast<std::size_t>(i)].try_acquire(keys[k]).won;
      }
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t k = 0; k < keys.size(); ++k) {
    int winners = 0;
    for (int i = 0; i < sessions; ++i) {
      winners += won[k][static_cast<std::size_t>(i)] ? 1 : 0;
    }
    EXPECT_EQ(winners, 1) << "key " << keys[k];
    EXPECT_NE(service.registry().leader_of(keys[k]), -1);
  }
  const auto report = service.report();
  EXPECT_EQ(report.acquires,
            static_cast<std::uint64_t>(sessions) * keys.size());
  EXPECT_EQ(report.wins, keys.size());
}

TEST_P(SvcStrategy, BlockingHandoffPreservesMutualExclusion) {
  constexpr int sessions = 4;
  svc::service service(config_with(
      GetParam(), {.nodes = sessions, .shards = 2, .seed = 31}));
  std::vector<svc::service::session> handles;
  for (int i = 0; i < sessions; ++i) handles.push_back(service.connect());

  std::atomic<int> inside{0};
  std::atomic<int> entries{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < sessions; ++i) {
    clients.emplace_back([&, i] {
      auto& session = handles[static_cast<std::size_t>(i)];
      const auto result = session.acquire("mutex");
      EXPECT_TRUE(result.won);
      const int concurrent = inside.fetch_add(1) + 1;
      EXPECT_EQ(concurrent, 1) << "two holders at once";
      entries.fetch_add(1);
      inside.fetch_sub(1);
      session.release("mutex", result.epoch);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(entries.load(), sessions);
}

TEST_P(SvcStrategy, LeaseExpiryFailsOverAndZombieIsFenced) {
  svc::service service(config_with(GetParam(), {.nodes = 4,
                                                .shards = 2,
                                                .seed = 7,
                                                .lease_ttl_ms = 400,
                                                .sweep_interval_ms = 20}));
  auto zombie = service.connect();
  auto heir = service.connect();

  const auto won = zombie.try_acquire("crashy");
  ASSERT_TRUE(won.won);
  ASSERT_EQ(won.epoch, 0u);
  ASSERT_LT(won.lease_deadline, std::chrono::steady_clock::time_point::max());

  // The heir can only get the key through lease expiry: the zombie
  // "crashes" and never releases.
  svc::acquire_result heir_result;
  std::thread blocked([&] { heir_result = heir.acquire("crashy"); });
  blocked.join();

  EXPECT_TRUE(heir_result.won);
  EXPECT_GE(heir_result.epoch, 1u);
  EXPECT_EQ(service.registry().leader_of("crashy"), heir.id());

  // Zombie fencing must hold identically for every strategy, including
  // fast-path grants: the stale epoch is rejected, the heir untouched.
  EXPECT_EQ(zombie.release("crashy", won.epoch),
            svc::lease_status::stale_epoch);
  EXPECT_EQ(zombie.renew("crashy", won.epoch), svc::lease_status::stale_epoch);
  EXPECT_EQ(service.registry().leader_of("crashy"), heir.id());
  EXPECT_EQ(heir.release("crashy", heir_result.epoch), svc::lease_status::ok);

  const auto report = service.report();
  EXPECT_GE(report.expirations, 1u);
  EXPECT_GE(report.stale_fences, 2u);
}

TEST_P(SvcStrategy, ConcurrentStopRejectsAcquiresGracefully) {
  svc::service service(config_with(
      GetParam(), {.nodes = 4, .shards = 4, .seed = 2}));
  constexpr int client_count = 6;
  std::vector<svc::service::session> sessions;
  for (int c = 0; c < client_count; ++c) sessions.push_back(service.connect());

  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < client_count; ++c) {
    clients.emplace_back([&, c] {
      auto& session = sessions[static_cast<std::size_t>(c)];
      while (!go.load()) std::this_thread::yield();
      for (int op = 0;; ++op) {
        const std::string key = "s/" + std::to_string(op % 8);
        const auto result = session.try_acquire(key);
        if (result.rejected) {
          rejected.fetch_add(1);
          EXPECT_TRUE(session.try_acquire("after-stop").rejected);
          return;
        }
        if (result.won) session.release(key, result.epoch);
      }
    });
  }
  go.store(true);
  std::this_thread::sleep_for(5ms);
  service.stop();
  for (auto& t : clients) t.join();
  EXPECT_GT(rejected.load(), 0u);
}

// Regression: every way of releasing twice (or after disconnect) must
// come back with the same clean verdict no matter which strategy won
// the epoch — stale_epoch iff the presented epoch moved on, not_leader
// iff the epoch is current but the caller holds nothing. The adaptive
// fast path, the claim-arbitrated rungs, and the self-deciding full
// protocol all leave identical registry state behind a win, and this
// pins that down per strategy.
TEST_P(SvcStrategy, DoubleReleaseAndReleaseAfterDisconnectAreClean) {
  svc::service service(config_with(
      GetParam(), {.nodes = 2, .shards = 2, .seed = 37}));
  auto session = service.connect();

  // Double release, fenced and unfenced.
  const auto won = session.try_acquire("twice");
  ASSERT_TRUE(won.won);
  EXPECT_EQ(session.release("twice", won.epoch), svc::lease_status::ok);
  EXPECT_EQ(session.release("twice", won.epoch),
            svc::lease_status::stale_epoch);
  EXPECT_EQ(session.release("twice"), svc::lease_status::not_leader);
  EXPECT_EQ(session.renew("twice", won.epoch), svc::lease_status::stale_epoch);
  // Fenced with the *current* epoch of the released key: the epoch is
  // live but nobody holds it.
  const auto current = service.registry().current("twice");
  EXPECT_EQ(session.release("twice", current.epoch),
            svc::lease_status::not_leader);

  // Release after disconnect.
  const auto regained = session.try_acquire("twice");
  ASSERT_TRUE(regained.won);
  EXPECT_EQ(session.disconnect(), 1u);
  EXPECT_EQ(session.release("twice", regained.epoch),
            svc::lease_status::stale_epoch);
  EXPECT_EQ(session.release("twice"), svc::lease_status::not_leader);

  // A key never acquired by anyone sits at implicit epoch 0: that epoch
  // is *current*, so the fenced verdict is not_leader, not stale_epoch —
  // and probing it must not create registry state.
  EXPECT_EQ(session.release("never-acquired", 0),
            svc::lease_status::not_leader);
  EXPECT_EQ(session.renew("never-acquired", 0), svc::lease_status::not_leader);
  EXPECT_EQ(session.release("never-acquired", 3),
            svc::lease_status::stale_epoch);
  EXPECT_FALSE(service.registry().peek("never-acquired").has_value());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, SvcStrategy,
    ::testing::Values(strategy_kind::full, strategy_kind::sifter_pill,
                      strategy_kind::doorway_only, strategy_kind::adaptive),
    [](const ::testing::TestParamInfo<strategy_kind>& info) {
      return std::string(election::to_string(info.param));
    });

// ---------------------------------------------------------------------
// gcc 12 coroutine-frame workaround soak. doorway_only's elect() keeps
// the awaited doorway result in a *named local* because gcc 12
// miscompiles the frame when the co_await feeds a branch directly (the
// resumed frame never re-enters and the caller hangs — see
// election/strategy.cpp). This soak drives that exact coroutine shape
// through thousands of concurrent resumptions; a regression shows up as
// a hang (caught by the CI job timeout) or a TSan report, so the
// workaround cannot rot silently.

TEST(SvcDoorwaySoak, NamedLocalsWorkaroundSurvivesConcurrentChurn) {
  constexpr int sessions = 6;
  constexpr int keys = 4;
  constexpr int rounds = 150;
  svc::service service({.nodes = sessions,
                        .shards = 4,
                        .seed = 43,
                        .default_strategy = strategy_kind::doorway_only});
  std::vector<svc::service::session> handles;
  for (int i = 0; i < sessions; ++i) handles.push_back(service.connect());

  std::atomic<std::uint64_t> wins{0};
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (int i = 0; i < sessions; ++i) {
    clients.emplace_back([&, i] {
      auto& session = handles[static_cast<std::size_t>(i)];
      for (int r = 0; r < rounds; ++r) {
        // Stride so each key sees solo epochs (doorway winner path) and
        // contended epochs (doorway loser + claim-conflict paths) — all
        // three exits of the patched coroutine run continuously.
        const std::string key = "soak/" + std::to_string((i + r) % keys);
        const auto result = session.try_acquire(key);
        if (result.won) {
          wins.fetch_add(1);
          session.release(key, result.epoch);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // Liveness across the churn: solo epochs must keep being won (a
  // doorway that stopped admitting anyone would drive this to ~0).
  EXPECT_GT(wins.load(), 0u);
  const auto report = service.report();
  const auto idx = static_cast<std::size_t>(strategy_kind::doorway_only);
  EXPECT_EQ(report.strategies[idx].acquires,
            static_cast<std::uint64_t>(sessions) * rounds);
  EXPECT_EQ(report.strategies[idx].wins, wins.load());
}

// ---------------------------------------------------------------------
// Adaptive-specific behaviour.

TEST(SvcAdaptive, UncontendedAcquiresRideTheFastPath) {
  svc::service service({.nodes = 4,
                        .shards = 2,
                        .seed = 3,
                        .default_strategy = strategy_kind::adaptive});
  auto session = service.connect();
  constexpr int cycles = 50;
  for (int i = 0; i < cycles; ++i) {
    const auto result = session.try_acquire("quiet");
    ASSERT_TRUE(result.won) << "cycle " << i;
    session.release("quiet", result.epoch);
  }
  const auto report = service.report();
  // Epoch 0 has no contention history yet; every later epoch observed a
  // single acquirer and must skip the distributed protocol entirely.
  EXPECT_EQ(report.fast_path.hits, static_cast<std::uint64_t>(cycles));
  EXPECT_EQ(report.fast_path.conflicts, 0u);
  EXPECT_GT(report.fast_path.hit_rate(), 0.99);
  const auto idx = static_cast<std::size_t>(strategy_kind::adaptive);
  EXPECT_EQ(report.strategies[idx].wins, static_cast<std::uint64_t>(cycles));
}

TEST(SvcAdaptive, ContendedAcquiresLowerTheHitRate) {
  // A contended adaptive acquire makes no fast-path attempt at all, so
  // the hit rate counts it in its denominator; a rate over fast-path
  // attempts alone would read 1.0 here.
  svc::service service({.nodes = 2,
                        .shards = 2,
                        .seed = 5,
                        .default_strategy = strategy_kind::adaptive});
  auto holder = service.connect();
  auto rival = service.connect();
  const auto held = holder.try_acquire("hot");
  ASSERT_TRUE(held.won);
  ASSERT_TRUE(held.fast_path);
  EXPECT_FALSE(rival.try_acquire("hot").won);
  EXPECT_FALSE(rival.try_acquire("hot").won);

  const auto report = service.report();
  const auto idx = static_cast<std::size_t>(strategy_kind::adaptive);
  EXPECT_EQ(report.strategies[idx].acquires, 3u);
  EXPECT_EQ(report.fast_path.hits, 1u);
  EXPECT_DOUBLE_EQ(report.fast_path.hit_rate(), 1.0 / 3.0);
}

TEST(SvcAdaptive, FastPathResultIsMarkedAndLeased) {
  svc::service service({.nodes = 2,
                        .shards = 2,
                        .lease_ttl_ms = 60'000,
                        .sweep_interval_ms = 30'000,
                        .default_strategy = strategy_kind::adaptive});
  auto session = service.connect();
  const auto result = session.try_acquire("marked");
  ASSERT_TRUE(result.won);
  EXPECT_TRUE(result.fast_path);
  // Fast-path grants carry a real lease deadline, renewable and fenced
  // exactly like protocol grants.
  EXPECT_LT(result.lease_deadline,
            std::chrono::steady_clock::time_point::max());
  EXPECT_EQ(session.renew("marked", result.epoch), svc::lease_status::ok);
  EXPECT_EQ(session.release("marked", result.epoch), svc::lease_status::ok);
}

TEST(SvcAdaptive, ContentionForcesTheProtocolPath) {
  constexpr int sessions = 4;
  svc::service service({.nodes = sessions,
                        .shards = 2,
                        .seed = 41,
                        .default_strategy = strategy_kind::adaptive});
  std::vector<svc::service::session> handles;
  for (int i = 0; i < sessions; ++i) handles.push_back(service.connect());

  // Several rounds of contended blocking handoff on one key: holders
  // keep the key long enough that the rivals' attempts register in the
  // same epoch, so the contention estimate is >1 and later epochs must
  // be decided by the distributed protocol, not the CAS.
  constexpr int rounds = 3;
  std::atomic<int> entries{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < sessions; ++i) {
    clients.emplace_back([&, i] {
      auto& session = handles[static_cast<std::size_t>(i)];
      for (int r = 0; r < rounds; ++r) {
        const auto result = session.acquire("busy");
        EXPECT_TRUE(result.won);
        entries.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        session.release("busy", result.epoch);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(entries.load(), sessions * rounds);

  const auto report = service.report();
  // The fast path may only have taken the very first uncontended epochs;
  // contended epochs ran real elections (visible as protocol messages).
  EXPECT_LT(report.fast_path.hits, report.wins);
  EXPECT_GT(report.total_messages, 0u);
}

TEST(SvcStrategyRouting, PerKeyOverrideBeatsDefault) {
  svc::service_config config{.nodes = 4, .shards = 2, .seed = 19};
  config.default_strategy = strategy_kind::full;
  config.key_strategies["fast/key"] = strategy_kind::doorway_only;
  svc::service service(std::move(config));
  auto session = service.connect();

  ASSERT_TRUE(session.try_acquire("plain/key").won);
  ASSERT_TRUE(session.try_acquire("fast/key").won);

  const auto report = service.report();
  const auto full_idx = static_cast<std::size_t>(strategy_kind::full);
  const auto door_idx = static_cast<std::size_t>(strategy_kind::doorway_only);
  EXPECT_EQ(report.strategies[full_idx].acquires, 1u);
  EXPECT_EQ(report.strategies[full_idx].wins, 1u);
  EXPECT_EQ(report.strategies[door_idx].acquires, 1u);
  EXPECT_EQ(report.strategies[door_idx].wins, 1u);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"doorway_only\":{\"acquires\":1,\"wins\":1}"),
            std::string::npos);
}

TEST(SvcStrategyRouting, ParseAndPrintRoundTrip) {
  for (int k = 0; k < election::strategy_kind_count; ++k) {
    const auto kind = static_cast<strategy_kind>(k);
    const auto parsed = election::parse_strategy(election::to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(election::parse_strategy("tournament").has_value());
}

// ---------------------------------------------------------------------
// Election-id exhaustion: fail fast, never alias var_id.instance.

using SvcRegistryDeathTest = ::testing::Test;

TEST(SvcRegistryDeathTest, InstanceIdExhaustionFailsFastBeforeAliasing) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Start two ids short of the guard: two allocations succeed, the third
  // must abort with a clear message instead of wrapping into the ids of
  // long-decided instances.
  svc::instance_registry registry(
      /*shard_count=*/1, svc::instance_registry::instance_id_limit - 2);
  EXPECT_EQ(registry.remaining_instance_ids(), 2u);
  (void)registry.current("a");
  (void)registry.current("b");
  EXPECT_EQ(registry.remaining_instance_ids(), 0u);
  EXPECT_DEATH((void)registry.current("c"), "election-id space exhausted");
}

TEST(SvcRegistryDeathTest, EpochBumpAllocationIsGuardedToo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  svc::instance_registry registry(
      /*shard_count=*/1, svc::instance_registry::instance_id_limit - 1);
  (void)registry.current("a");
  const auto deadline = registry.claim_win(
      "a", /*epoch=*/0, /*session=*/0,
      svc::instance_registry::clock::duration::zero());
  ASSERT_TRUE(deadline.has_value());
  // The release's epoch bump needs a fresh instance id — none left.
  EXPECT_DEATH((void)registry.release("a", /*session=*/0),
               "election-id space exhausted");
}

TEST(SvcRegistry, FreshRegistryHasPlentyOfIds) {
  svc::instance_registry registry(/*shard_count=*/2);
  // The default starting id leaves (almost) the whole 32-bit namespace.
  EXPECT_GT(registry.remaining_instance_ids(), 4'000'000'000ull);
}

}  // namespace
}  // namespace elect
