// Front-door tests: consistent-hash ring stability (shard loss remaps only
// the lost shard's segment; recovery restores the original mapping), result
// cache bit-identity + LRU eviction + capacity-0 disable, cluster-served
// results bit-identical to Session::run under a concurrent multi-client
// storm, failover under an induced mid-run shard outage (every accepted
// future resolves), kFailFast refusal semantics, and cross-shard stats
// aggregation (merged latency windows, dispatch shares). Everything here
// also runs under the TSan CI job — this suite is the concurrency contract
// of the cluster layer, the way test_server.cpp is for one shard.
#include "runtime/frontdoor/front_door.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "api/bswp.h"
#include "core/rng.h"
#include "models/zoo.h"
#include "runtime/frontdoor/hash_ring.h"
#include "runtime/frontdoor/result_cache.h"
#include "runtime/pipeline.h"

namespace bswp::runtime {
namespace {

using namespace std::chrono_literals;

// --- HashRing ----------------------------------------------------------------

TEST(HashRing, OwnerIsStableAndCandidatesAreDistinct) {
  HashRing ring(4, 64);
  Rng rng(5);
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t key = rng.next_u64();
    const int owner = ring.shard_for(key);
    EXPECT_GE(owner, 0);
    EXPECT_LT(owner, 4);
    EXPECT_EQ(owner, ring.shard_for(key));  // deterministic
    const std::vector<int> cands = ring.candidates(key);
    EXPECT_EQ(cands.size(), 4u);
    EXPECT_EQ(cands[0], owner);
    EXPECT_EQ(std::set<int>(cands.begin(), cands.end()).size(), 4u);
  }
}

TEST(HashRing, RemovingOneShardRemapsOnlyItsKeysAndRecoveryRestoresAll) {
  const int kShards = 4;
  const int kKeys = 10000;
  HashRing ring(kShards, 64);
  Rng rng(7);
  std::vector<std::uint64_t> keys;
  std::vector<int> before;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back(rng.next_u64());
    before.push_back(ring.shard_for(keys.back()));
  }

  std::vector<bool> alive(kShards, true);
  alive[1] = false;  // shard 1 dies
  int remapped = 0;
  for (int i = 0; i < kKeys; ++i) {
    const int now = ring.shard_for_live(keys[i], alive);
    EXPECT_NE(now, 1);
    if (before[static_cast<std::size_t>(i)] != 1) {
      // Surviving shards keep every key they owned — only the dead shard's
      // segment moves.
      EXPECT_EQ(now, before[static_cast<std::size_t>(i)]);
    } else {
      ++remapped;
    }
  }
  // ~1/4 of the keys lived on shard 1; vnode variance keeps it well under
  // the ~35% bound the docs promise for a 4-shard ring.
  EXPECT_GT(remapped, kKeys / 8);
  EXPECT_LT(remapped, kKeys * 35 / 100);

  // Recovery: the ring was never mutated, so the original mapping returns
  // exactly.
  alive[1] = true;
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(ring.shard_for_live(keys[i], alive),
              before[static_cast<std::size_t>(i)]);
  }
}

TEST(HashRing, VnodesSpreadKeysRoughlyEvenly) {
  const int kShards = 4;
  const int kKeys = 10000;
  HashRing ring(kShards, 64);
  Rng rng(11);
  std::vector<int> count(kShards, 0);
  for (int i = 0; i < kKeys; ++i) {
    ++count[static_cast<std::size_t>(ring.shard_for(rng.next_u64()))];
  }
  for (int s = 0; s < kShards; ++s) {
    EXPECT_GT(count[static_cast<std::size_t>(s)], kKeys * 10 / 100);
    EXPECT_LT(count[static_cast<std::size_t>(s)], kKeys * 45 / 100);
  }
}

// --- RequestKey / ResultCache ------------------------------------------------

Tensor tiny_tensor(std::initializer_list<float> vals) {
  return Tensor({1, static_cast<int>(vals.size())}, std::vector<float>(vals));
}

TEST(RequestKey, KeysOnExactBits) {
  const Tensor a = tiny_tensor({1.0f, 2.0f});
  EXPECT_EQ(RequestKey::of("m", a), RequestKey::of("m", a));
  // Different model, same bits -> different key.
  EXPECT_FALSE(RequestKey::of("m", a) == RequestKey::of("n", a));
  // Bit-different, value-equal floats -> different keys (the contract is
  // bit-identity, not numeric equality).
  EXPECT_FALSE(RequestKey::of("m", tiny_tensor({0.0f, 1.0f})) ==
               RequestKey::of("m", tiny_tensor({-0.0f, 1.0f})));
  // Same bytes, different shape -> different key.
  Tensor b = a;
  b.reshape({2, 1});
  EXPECT_FALSE(RequestKey::of("m", a) == RequestKey::of("m", b));
}

QTensor marker_result(int16_t v, float scale = 1.0f) {
  QTensor q({1, 2}, 8, true);
  q.data[0] = v;
  q.data[1] = static_cast<int16_t>(-v);
  q.scale = scale;
  return q;
}

TEST(ResultCache, LruEvictionAndBitExactRoundTrip) {
  ResultCache cache(2);
  const RequestKey k1{1, 10}, k2{2, 20}, k3{3, 30};
  cache.put(k1, marker_result(7, 0.5f));
  cache.put(k2, marker_result(8));
  // Hit k1 so k2 becomes the LRU entry, then insert k3 -> k2 evicted.
  const auto hit = cache.get(k1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->data[0], 7);
  EXPECT_EQ(hit->data[1], -7);
  EXPECT_EQ(hit->scale, 0.5f);  // quantization metadata round-trips too
  cache.put(k3, marker_result(9));
  EXPECT_TRUE(cache.get(k1).has_value());
  EXPECT_FALSE(cache.get(k2).has_value());
  EXPECT_TRUE(cache.get(k3).has_value());

  const ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.capacity, 2u);
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(ResultCache, CapacityZeroDisablesEverything) {
  ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.put(RequestKey{1, 1}, marker_result(1));
  EXPECT_FALSE(cache.get(RequestKey{1, 1}).has_value());
  const ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses + s.insertions + s.entries, 0u);
}

TEST(ResultCache, ResetStatsKeepsEntriesWarm) {
  ResultCache cache(4);
  cache.put(RequestKey{1, 1}, marker_result(1));
  cache.get(RequestKey{1, 1});
  cache.reset_stats();
  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 1u);                        // still resident
  EXPECT_TRUE(cache.get(RequestKey{1, 1}).has_value());  // still a hit
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
}

// --- environment -------------------------------------------------------------

/// Compile a model through the pass pipeline with a unit-range synthetic
/// calibration (no pool, no training) — identical idiom to test_server.cpp.
bswp::Session compile_session(const models::NamedModel& m,
                              const models::ModelOptions& mo, uint64_t seed) {
  nn::Graph g = m.build(mo);
  Rng rng(seed);
  g.init_weights(rng);
  quant::CalibrationResult cal;
  cal.input_abs_max = 1.0f;
  for (int i = 0; i < g.num_nodes(); ++i) {
    cal.node_range[i] = 1.0f;
    cal.node_abs_range[i] = 1.0f;
  }
  return bswp::Session(compile(g, nullptr, cal, CompileOptions{}));
}

Tensor random_image(Rng& rng, int channels, int hw) {
  Tensor x({1, channels, hw, hw});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}

/// One small CIFAR-shaped model shared by the cluster tests.
struct SmallModel {
  bswp::Session session;
  std::vector<Tensor> images;
  std::vector<QTensor> refs;

  explicit SmallModel(int n_images = 24)
      : session(compile_session(models::paper_models()[1] /* ResNet-s */,
                                small_opts(), 11)) {
    Rng rng(99);
    for (int i = 0; i < n_images; ++i) {
      images.push_back(random_image(rng, 3, 16));
      refs.push_back(session.run(images.back()));
    }
  }

  static models::ModelOptions small_opts() {
    models::ModelOptions mo;
    mo.image_size = 16;
    mo.num_classes = 4;
    mo.width = 0.25f;
    return mo;
  }
};

SmallModel& small_model() {
  static SmallModel m;
  return m;
}

FrontDoorOptions quick_options(int shards, std::size_t cache_capacity = 0,
                               HealthPolicy health = HealthPolicy::kFailover) {
  FrontDoorOptions fo;
  fo.shards = shards;
  fo.cache_capacity = cache_capacity;
  fo.health = health;
  fo.server.workers = 1;
  fo.server.batching.max_batch = 4;
  fo.server.batching.max_delay = 300us;
  fo.server.queue.capacity = 256;
  fo.server.queue.policy = QueuePolicy::kBlock;
  return fo;
}

bool same_bits(const QTensor& a, const QTensor& b) {
  return a.shape == b.shape && a.bits == b.bits && a.is_signed == b.is_signed &&
         a.zero_point == b.zero_point && a.scale == b.scale &&
         a.data.size() == b.data.size() &&
         std::memcmp(a.data.data(), b.data.data(),
                     a.data.size() * sizeof(int16_t)) == 0;
}

// --- FrontDoor ---------------------------------------------------------------

TEST(FrontDoor, ValidatesOptions) {
  FrontDoorOptions bad = quick_options(2);
  bad.shards = 0;
  EXPECT_THROW(FrontDoor{bad}, std::invalid_argument);
  bad = quick_options(2);
  bad.vnodes_per_shard = 0;
  EXPECT_THROW(FrontDoor{bad}, std::invalid_argument);
  bad = quick_options(2);
  bad.breaker.unhealthy_after = 0;
  EXPECT_THROW(FrontDoor{bad}, std::invalid_argument);
  bad = quick_options(2);
  bad.breaker.cooldown = -1us;
  EXPECT_THROW(FrontDoor{bad}, std::invalid_argument);
}

TEST(FrontDoor, BitIdenticalAcrossShardsUnderMultiClientStorm) {
  SmallModel& m = small_model();
  FrontDoor door(quick_options(/*shards=*/2, /*cache_capacity=*/64));
  door.register_model("resnet-s", m.session.network());

  const int kClients = 4;
  const int kPerClient = 24;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::pair<std::size_t, std::future<QTensor>>> futs;
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t idx =
            static_cast<std::size_t>(c + i * kClients) % m.images.size();
        futs.emplace_back(idx, door.submit("resnet-s", m.images[idx]));
      }
      for (auto& [idx, f] : futs) {
        if (!same_bits(f.get(), m.refs[idx])) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // The storm itself may outrun the cache fill (a repeat submitted before
  // the first result lands is an honest miss), but now that every result is
  // in, a replay must hit without touching a shard.
  EXPECT_TRUE(same_bits(door.submit("resnet-s", m.images[0]).get(), m.refs[0]));

  const ClusterStats s = door.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kClients * kPerClient + 1));
  EXPECT_EQ(s.completed, s.submitted);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.healthy_shards, 2);
  EXPECT_GT(s.cache.hits, 0u);
  // Merged latency window covers every completed request (shards + cache).
  EXPECT_EQ(s.latency.count, s.completed);
  // Dispatch shares cover all routed traffic.
  double share = 0.0;
  std::uint64_t routed = 0;
  for (const ShardStats& ss : s.shard_stats) {
    share += ss.dispatch_share;
    routed += ss.routed;
  }
  EXPECT_NEAR(share, 1.0, 1e-9);
  EXPECT_EQ(routed + s.cache.hits, s.submitted);
}

TEST(FrontDoor, CacheHitBypassesShardsBitIdentically) {
  SmallModel& m = small_model();
  FrontDoor door(quick_options(/*shards=*/2, /*cache_capacity=*/8));
  door.register_model("resnet-s", m.session.network());

  const QTensor first = door.submit("resnet-s", m.images[0]).get();
  const std::uint64_t routed_before =
      door.stats().shard_stats[0].routed + door.stats().shard_stats[1].routed;
  const QTensor second = door.submit("resnet-s", m.images[0]).get();
  const ClusterStats s = door.stats();
  EXPECT_TRUE(same_bits(first, m.refs[0]));
  EXPECT_TRUE(same_bits(second, m.refs[0]));
  EXPECT_EQ(s.cache.hits, 1u);
  // The hit never touched a shard.
  EXPECT_EQ(s.shard_stats[0].routed + s.shard_stats[1].routed, routed_before);
}

TEST(FrontDoor, PlacementIsDeterministicAndSpread) {
  SmallModel& m = small_model();
  FrontDoor door(quick_options(/*shards=*/4));
  door.register_model("resnet-s", m.session.network());
  std::set<int> used;
  for (std::size_t i = 0; i < m.images.size(); ++i) {
    const int s = door.shard_for("resnet-s", m.images[i]);
    EXPECT_EQ(s, door.shard_for("resnet-s", m.images[i]));
    used.insert(s);
  }
  // 24 random images over 4 shards: all shards essentially always see keys.
  EXPECT_GE(used.size(), 2u);
  EXPECT_EQ(door.shard_count(), 4);
  EXPECT_EQ(door.healthy_shard_count(), 4);
}

TEST(FrontDoor, FailoverLosesNoAcceptedRequestWhenShardDiesMidRun) {
  SmallModel& m = small_model();
  FrontDoor door(quick_options(/*shards=*/4, /*cache_capacity=*/0,
                               HealthPolicy::kFailover));
  door.register_model("resnet-s", m.session.network());

  // Pick a victim that definitely owns traffic in this stream.
  const int victim = door.shard_for("resnet-s", m.images[0]);

  std::vector<std::pair<std::size_t, std::future<QTensor>>> futs;
  const int kTotal = 96;
  for (int i = 0; i < kTotal; ++i) {
    const std::size_t idx = static_cast<std::size_t>(i) % m.images.size();
    futs.emplace_back(idx, door.submit("resnet-s", m.images[idx]));
    if (i == kTotal / 3) door.stop_shard(victim);
  }
  door.drain();
  for (auto& [idx, f] : futs) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);  // drain => ready
    EXPECT_TRUE(same_bits(f.get(), m.refs[idx]));          // no losses
  }
  const ClusterStats s = door.stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.healthy_shards, 3);
  EXPECT_EQ(s.shard_stats[static_cast<std::size_t>(victim)].health,
            ShardHealth::kStopped);
  EXPECT_GE(s.ring_rebalances, 1u);
  // The victim's keys were absorbed by the survivors.
  std::uint64_t takeovers = 0;
  for (const ShardStats& ss : s.shard_stats) takeovers += ss.takeovers;
  EXPECT_GT(takeovers, 0u);
}

TEST(FrontDoor, RepeatedFailoverThenDrainLeavesNoFutureUnresolved) {
  // drain() returns once the pending count reaches zero, so a request must
  // leave that count only after its promise is fulfilled; a forwarder that
  // retired it first would let a racing drain() return with the last future
  // still unresolved. Spinning threads load the cores so that a forwarder
  // preempted inside such a window is likely somewhere across the rounds.
  SmallModel& m = small_model();
  std::atomic<bool> stop{false};
  std::vector<std::thread> busy;
  for (int i = 0; i < 3; ++i) {
    busy.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  constexpr int kRounds = 4, kDrainsPerRound = 200;
  int unresolved = 0;
  for (int round = 0; round < kRounds; ++round) {
    FrontDoor door(quick_options(/*shards=*/2, /*cache_capacity=*/0, HealthPolicy::kFailover));
    door.register_model("resnet-s", m.session.network());
    const int victim = door.shard_for("resnet-s", m.images[0]);
    for (int d = 0; d < kDrainsPerRound; ++d) {
      // One request per drain: drain() and the forwarder then wake on the
      // same shard completion, which is exactly the race in question.
      std::future<QTensor> f =
          door.submit("resnet-s", m.images[static_cast<std::size_t>(d) % m.images.size()]);
      if (d == kDrainsPerRound / 2) door.stop_shard(victim);
      door.drain();
      if (f.wait_for(0s) != std::future_status::ready) ++unresolved;
    }
  }
  stop.store(true);
  for (std::thread& t : busy) t.join();
  EXPECT_EQ(unresolved, 0) << "futures unresolved after " << kRounds * kDrainsPerRound
                           << " drain() calls";
}

TEST(FrontDoor, FailFastRefusesOnlyTheDeadOwnersKeys) {
  SmallModel& m = small_model();
  FrontDoor door(quick_options(/*shards=*/2, /*cache_capacity=*/0,
                               HealthPolicy::kFailFast));
  door.register_model("resnet-s", m.session.network());

  // Find one image owned by each shard.
  int owned_by_dead = -1, owned_by_live = -1;
  const int victim = door.shard_for("resnet-s", m.images[0]);
  for (std::size_t i = 0; i < m.images.size(); ++i) {
    const int s = door.shard_for("resnet-s", m.images[i]);
    if (s == victim) {
      owned_by_dead = static_cast<int>(i);
    } else {
      owned_by_live = static_cast<int>(i);
    }
  }
  ASSERT_GE(owned_by_dead, 0);
  ASSERT_GE(owned_by_live, 0);

  door.stop_shard(victim);

  // The dead owner's keys fail fast with kUnhealthy...
  auto refused =
      door.submit("resnet-s", m.images[static_cast<std::size_t>(owned_by_dead)]);
  try {
    refused.get();
    FAIL() << "expected ServerRejected";
  } catch (const ServerRejected& e) {
    EXPECT_EQ(e.reason(), ServerRejected::Reason::kUnhealthy);
  }
  // ...while the live shard's keys still complete bit-identically.
  EXPECT_TRUE(same_bits(
      door.submit("resnet-s", m.images[static_cast<std::size_t>(owned_by_live)])
          .get(),
      m.refs[static_cast<std::size_t>(owned_by_live)]));
  const ClusterStats s = door.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.failovers, 0u);  // kFailFast never retries
}

TEST(FrontDoor, UnknownModelIsAClientErrorNotAShardFault) {
  SmallModel& m = small_model();
  FrontDoor door(quick_options(/*shards=*/2));
  door.register_model("resnet-s", m.session.network());
  EXPECT_THROW(door.submit("nope", m.images[0]).get(), std::invalid_argument);
  const ClusterStats s = door.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.healthy_shards, 2);  // no breaker movement
  for (const ShardStats& ss : s.shard_stats) EXPECT_EQ(ss.failures, 0u);
}

TEST(FrontDoor, ShutdownResolvesEverythingAndRejectsNewWork) {
  SmallModel& m = small_model();
  FrontDoor door(quick_options(/*shards=*/2));
  door.register_model("resnet-s", m.session.network());
  std::vector<std::future<QTensor>> futs;
  for (int i = 0; i < 12; ++i) {
    futs.push_back(door.submit(
        "resnet-s", m.images[static_cast<std::size_t>(i) % m.images.size()]));
  }
  door.shutdown();
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
    EXPECT_NO_THROW(f.get());
  }
  try {
    door.submit("resnet-s", m.images[0]).get();
    FAIL() << "expected ServerRejected";
  } catch (const ServerRejected& e) {
    EXPECT_EQ(e.reason(), ServerRejected::Reason::kShutdown);
  }
  door.shutdown();  // idempotent
}

TEST(FrontDoor, ConcurrentStormWithStatsPollingAndMidStormShardStop) {
  // The TSan-facing test: clients, a stats() poller and a stop_shard() all
  // race; every accepted future must still resolve bit-identically.
  SmallModel& m = small_model();
  FrontDoor door(quick_options(/*shards=*/3, /*cache_capacity=*/32));
  door.register_model("resnet-s", m.session.network());

  std::atomic<bool> storm_done{false};
  std::thread poller([&] {
    while (!storm_done.load()) {
      const ClusterStats s = door.stats();
      EXPECT_LE(s.completed + s.failed, s.submitted);
      std::this_thread::sleep_for(200us);
    }
  });

  const int kClients = 3;
  const int kPerClient = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::pair<std::size_t, std::future<QTensor>>> futs;
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t idx =
            static_cast<std::size_t>(c * kPerClient + i) % m.images.size();
        futs.emplace_back(idx, door.submit("resnet-s", m.images[idx]));
        if (c == 0 && i == kPerClient / 2) door.stop_shard(2);
      }
      for (auto& [idx, f] : futs) {
        if (!same_bits(f.get(), m.refs[idx])) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  storm_done.store(true);
  poller.join();

  EXPECT_EQ(mismatches.load(), 0);
  const ClusterStats s = door.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(s.completed, s.submitted);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.healthy_shards, 2);
}

}  // namespace
}  // namespace bswp::runtime
