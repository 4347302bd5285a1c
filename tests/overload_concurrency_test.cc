#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/overload.h"

namespace lidi {
namespace {

// The overload-control primitives sit on the hottest request paths of every
// tier (transport dispatch, broker produce, voldemort verbs, router
// admission) and are hit from TCP connection threads concurrently. This suite
// runs under TSan in check.sh (stage 4 matches *concurrency*): the contract
// is not just "no data race" but "no over-grant" — a racing bucket must
// never hand out more than burst tokens, a racing limiter must never admit
// more than max holders.

TEST(TokenBucketTest, RefillIsAPureFunctionOfTimestamps) {
  TokenBucket bucket(/*rate_per_sec=*/10, /*burst=*/2);
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));  // burst spent, no time has passed
  // 100ms at 10/s refills exactly one token; a stale timestamp afterwards
  // must not refund anything (refill clamps to the latest time seen).
  EXPECT_TRUE(bucket.TryAcquire(100'000));
  EXPECT_FALSE(bucket.TryAcquire(50'000));
  EXPECT_FALSE(bucket.TryAcquire(100'000));
}

TEST(TokenBucketTest, DisabledBucketAlwaysGrants) {
  TokenBucket bucket(/*rate_per_sec=*/0, /*burst=*/1);
  EXPECT_FALSE(bucket.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryAcquire(0));
}

TEST(TokenBucketConcurrencyTest, RacingAcquirersNeverOverdraw) {
  constexpr int kThreads = 8;
  constexpr int kAttemptsPerThread = 2000;
  constexpr double kBurst = 100;
  TokenBucket bucket(/*rate_per_sec=*/1e-9, kBurst);  // ~no refill in-test
  std::atomic<int64_t> granted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bucket, &granted] {
      for (int i = 0; i < kAttemptsPerThread; ++i) {
        if (bucket.TryAcquire(/*now_micros=*/1000)) {
          granted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(granted.load(), static_cast<int64_t>(kBurst));
}

TEST(PerClientQuotaConcurrencyTest, BucketCreationRaceKeepsPerClientBounds) {
  constexpr int kThreads = 8;
  constexpr int kClients = 4;
  constexpr int kAttemptsPerThread = 500;
  constexpr double kBurst = 50;
  PerClientQuota quota(/*rate_per_sec=*/1e-9, kBurst);
  std::atomic<int64_t> granted[kClients] = {};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    // Every thread hits every client, so first-sight bucket creation races
    // on all of them.
    threads.emplace_back([&quota, &granted] {
      for (int i = 0; i < kAttemptsPerThread; ++i) {
        const int c = i % kClients;
        if (quota.Admit("client-" + std::to_string(c), /*now_micros=*/1000)) {
          granted[c].fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(granted[c].load(), static_cast<int64_t>(kBurst))
        << "client " << c;
  }
}

TEST(PerClientQuotaConcurrencyTest, KillSwitchRacesSafelyWithAdmits) {
  PerClientQuota quota(/*rate_per_sec=*/1, /*burst=*/1);
  std::atomic<bool> stop{false};
  std::thread toggler([&quota, &stop] {
    for (int i = 0; i < 2000; ++i) quota.set_enforcing(i % 2 == 0);
    stop.store(true);
  });
  while (!stop.load()) {
    quota.Admit("c", 0);
  }
  toggler.join();
  // The interleaving above is the point (TSan coverage); the functional
  // checks must hold no matter how the race played out. Off: always grants
  // without touching the bucket. On: the burst-1 bucket is empty after at
  // most one grant, and nothing refills at t=0.
  quota.set_enforcing(false);
  EXPECT_TRUE(quota.Admit("c", 0));
  quota.set_enforcing(true);
  quota.Admit("c", 0);
  EXPECT_FALSE(quota.Admit("c", 0));
}

TEST(InflightLimiterConcurrencyTest, NeverAdmitsMoreThanMaxHolders) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 5000;
  constexpr int64_t kMax = 3;
  InflightLimiter limiter(kMax);
  std::atomic<int64_t> inside{0};
  std::atomic<int64_t> high_water{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        InflightGuard guard(&limiter);
        if (!guard.admitted()) continue;
        const int64_t now = inside.fetch_add(1, std::memory_order_acq_rel) + 1;
        int64_t seen = high_water.load(std::memory_order_relaxed);
        while (now > seen &&
               !high_water.compare_exchange_weak(seen, now,
                                                 std::memory_order_relaxed)) {
        }
        inside.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(high_water.load(), kMax);
  EXPECT_GT(high_water.load(), 0);
  EXPECT_EQ(limiter.inflight(), 0);  // every admitted guard exited
}

TEST(InflightLimiterTest, DisabledLimiterNeverCounts) {
  InflightLimiter limiter(0);
  EXPECT_FALSE(limiter.enabled());
  {
    InflightGuard a(&limiter);
    InflightGuard b(&limiter);
    EXPECT_TRUE(a.admitted());
    EXPECT_TRUE(b.admitted());
    EXPECT_EQ(limiter.inflight(), 0);
  }
  EXPECT_EQ(limiter.inflight(), 0);  // Exit on a disabled limiter is a no-op
}

}  // namespace
}  // namespace lidi
