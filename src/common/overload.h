#ifndef LIDI_COMMON_OVERLOAD_H_
#define LIDI_COMMON_OVERLOAD_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/sync.h"

namespace lidi {

/// Overload-control primitives shared by the serving tiers (DESIGN.md §11).
///
/// The paper's systems exist to survive "heavy traffic from millions of
/// users"; these are the mechanisms that make saturation a graceful-
/// degradation regime instead of a queueing collapse:
///  - TokenBucket / PerClientQuota: per-client rate limiting at the Kafka
///    broker and Voldemort server — a hot client is throttled before it
///    starves everyone else.
///  - InflightLimiter: bounded concurrent admissions — the transport
///    dispatch queues and the Espresso router reject-before-work when the
///    in-flight budget is exhausted.
///
/// Every rejection surfaces as Status::Overloaded, parity-locked across the
/// sim and TCP transport backends like the rest of the error contract, so
/// clients can distinguish "back off and retry" from real failures.

/// A standard token bucket: capacity `burst` tokens, refilled continuously
/// at `rate_per_sec`. Deterministic under a virtual clock — the refill is a
/// pure function of the timestamps the caller passes in, so seeded sim
/// schedules replay identically. Thread-safe; the lock is a leaf.
///
/// rate_per_sec <= 0 disables the bucket: TryAcquire always grants.
class TokenBucket {
 public:
  TokenBucket(double rate_per_sec, double burst);

  /// Takes `tokens` if available at `now_micros`, else refuses (never
  /// blocks, never goes into debt). Calls with non-monotonic timestamps are
  /// safe: refill clamps to the latest time seen.
  bool TryAcquire(int64_t now_micros, double tokens = 1.0);

  double rate_per_sec() const { return rate_per_sec_; }
  double burst() const { return burst_; }
  bool enabled() const { return rate_per_sec_ > 0; }

 private:
  const double rate_per_sec_;
  const double burst_;

  Mutex mu_{"common.token_bucket"};
  double tokens_ LIDI_GUARDED_BY(mu_);
  int64_t refilled_micros_ LIDI_GUARDED_BY(mu_) = 0;
};

/// Per-client quota: one TokenBucket per client identity, all with the same
/// (rate, burst) configuration. Buckets are created on first sight of a
/// client and live forever (client identities are addresses, a bounded
/// population). Thread-safe; Admit on a known client is lock-light (shared
/// lock on the map, then the bucket's own leaf lock).
class PerClientQuota {
 public:
  PerClientQuota(double rate_per_sec, double burst);

  /// True if `client` may proceed at `now_micros` (consumes one token).
  /// Always true when the quota is disabled (rate <= 0).
  bool Admit(const std::string& client, int64_t now_micros,
             double tokens = 1.0);

  bool enabled() const { return rate_per_sec_ > 0; }

  /// Runtime kill switch: while set false, Admit always grants. Lets the
  /// sim harness end admission pressure when chaos ends (Settle) without
  /// reconstructing the tier.
  void set_enforcing(bool enforcing) {
    enforcing_.store(enforcing, std::memory_order_relaxed);
  }
  bool enforcing() const {
    return enforcing_.load(std::memory_order_relaxed);
  }

 private:
  const double rate_per_sec_;
  const double burst_;
  std::atomic<bool> enforcing_{true};

  mutable SharedMutex mu_{"common.quota_clients"};
  std::map<std::string, std::unique_ptr<TokenBucket>> buckets_
      LIDI_GUARDED_BY(mu_);
};

/// Bounded concurrent admissions: TryEnter grants while fewer than `max`
/// holders are inside, refuses otherwise. The transports use this as the
/// dispatch-queue bound (a request admitted for dispatch holds a slot until
/// its handler finishes), the Espresso router as its in-flight budget.
/// max <= 0 disables the limit. Lock-free.
class InflightLimiter {
 public:
  explicit InflightLimiter(int64_t max) : max_(max) {}

  bool TryEnter() {
    if (max_ <= 0) return true;
    if (inflight_.fetch_add(1, std::memory_order_acq_rel) + 1 > max_) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      return false;
    }
    return true;
  }

  /// Pairs with a successful TryEnter (a refused TryEnter already undid its
  /// increment; a disabled limiter never counted).
  void Exit() {
    if (max_ <= 0) return;
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }

  int64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  int64_t max() const { return max_; }
  bool enabled() const { return max_ > 0; }

 private:
  const int64_t max_;
  std::atomic<int64_t> inflight_{0};
};

/// RAII holder for an InflightLimiter slot. Admitted() false = the budget
/// was exhausted; the guard then holds nothing and releases nothing.
class InflightGuard {
 public:
  explicit InflightGuard(InflightLimiter* limiter)
      : limiter_(limiter), admitted_(limiter->TryEnter()) {}
  ~InflightGuard() {
    if (admitted_) limiter_->Exit();
  }

  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

  bool admitted() const { return admitted_; }

 private:
  InflightLimiter* const limiter_;
  const bool admitted_;
};

}  // namespace lidi

#endif  // LIDI_COMMON_OVERLOAD_H_
