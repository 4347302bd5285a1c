#ifndef LIDI_COMMON_SYNC_H_
#define LIDI_COMMON_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

/// Annotated synchronisation primitives (paper-wide correctness substrate).
///
/// Every lock in the tree is a lidi::Mutex / lidi::SharedMutex so that two
/// machine checks replace after-the-fact TSan archaeology:
///
///  1. Clang Thread Safety Analysis attributes. Members are tagged
///     LIDI_GUARDED_BY(mu_), *_locked() helpers LIDI_REQUIRES(mu_); a Clang
///     build with -Wthread-safety checks them. Under GCC every attribute
///     macro expands to nothing, and lidi-check's tsa-coverage check
///     enforces that each guarded member carries its annotation.
///
///  2. A debug-mode lock-order registry at run time. Each Mutex/SharedMutex
///     registers per-thread acquisition chains; the first A->B / B->A
///     inversion aborts the process printing BOTH chains' lock names, so a
///     latent deadlock is caught on the first interleaving that exhibits
///     the inconsistent order — not the (rare) one that actually deadlocks.
///     Optional rank hints (`Mutex(name, rank)`) declare the hierarchy
///     explicitly: acquiring a lock whose rank is <= a held lock's rank
///     aborts immediately, even before any reverse order is observed.
///     Compiled out when LIDI_LOCK_ORDER_CHECKS is 0 (release benches);
///     the CMake option LIDI_LOCK_ORDER (default ON) pins the macro for
///     every TU so layouts never diverge.

// --- Clang Thread Safety Analysis attribute macros -------------------------
// No-ops on non-Clang compilers, per-attribute feature-tested on Clang.
#if defined(__clang__)
#define LIDI_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define LIDI_THREAD_ANNOTATION(x)  // not Clang: compiles to nothing
#endif

#define LIDI_CAPABILITY(x) LIDI_THREAD_ANNOTATION(capability(x))
#define LIDI_SCOPED_CAPABILITY LIDI_THREAD_ANNOTATION(scoped_lockable)
#define LIDI_GUARDED_BY(x) LIDI_THREAD_ANNOTATION(guarded_by(x))
#define LIDI_PT_GUARDED_BY(x) LIDI_THREAD_ANNOTATION(pt_guarded_by(x))
#define LIDI_ACQUIRED_BEFORE(...) \
  LIDI_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define LIDI_ACQUIRED_AFTER(...) \
  LIDI_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define LIDI_REQUIRES(...) \
  LIDI_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define LIDI_REQUIRES_SHARED(...) \
  LIDI_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define LIDI_ACQUIRE(...) \
  LIDI_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define LIDI_ACQUIRE_SHARED(...) \
  LIDI_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define LIDI_RELEASE(...) \
  LIDI_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define LIDI_RELEASE_SHARED(...) \
  LIDI_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define LIDI_RELEASE_GENERIC(...) \
  LIDI_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define LIDI_TRY_ACQUIRE(...) \
  LIDI_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define LIDI_EXCLUDES(...) LIDI_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define LIDI_ASSERT_CAPABILITY(x) LIDI_THREAD_ANNOTATION(assert_capability(x))
#define LIDI_RETURN_CAPABILITY(x) LIDI_THREAD_ANNOTATION(lock_returned(x))
#define LIDI_NO_THREAD_SAFETY_ANALYSIS \
  LIDI_THREAD_ANNOTATION(no_thread_safety_analysis)

// --- Lock-order registry switch --------------------------------------------
// CMake always pins this (add_compile_definitions) so every TU agrees;
// the fallback keeps ad-hoc compiles (editors, single-file checks) working.
#if !defined(LIDI_LOCK_ORDER_CHECKS)
#if defined(NDEBUG)
#define LIDI_LOCK_ORDER_CHECKS 0
#else
#define LIDI_LOCK_ORDER_CHECKS 1
#endif
#endif

namespace lidi {

/// Central lock-rank table (lower rank = acquired first / outermost). Ranks
/// are assigned only to locks whose nesting is part of a verified hierarchy;
/// unranked locks (-1) rely on the observed-order graph instead. Mirrored in
/// DESIGN.md §8 — keep the two in sync.
namespace lockrank {
// net/network: the sim's fault and virtual-time state; a leaf.
inline constexpr int kNetEndpoints = 10;
// net/tcp_transport: transport state (listeners, pools, accepted
// connections).
// net/transport: the endpoint table both backends share (handlers, endpoint
// counters); taken under the TCP state lock when an endpoint registers.
// All sit below the subsystem locks (>= 20) because handlers run with none
// of them held, and callers must not hold subsystem locks across a Call.
inline constexpr int kNetTcpState = 12;
inline constexpr int kNetTable = 17;
// kafka: broker partition map -> per-partition log writer -> snapshot
// micro-mutex. Readers take only the snapshot micro-mutex.
inline constexpr int kKafkaBrokerPartitions = 20;
inline constexpr int kKafkaLogWriter = 30;
inline constexpr int kKafkaLogSnapshot = 35;
// storage/log_engine: single writer/compaction lock (a leaf; the engine
// has no nested lock today, but it sits under any caller that ranks).
inline constexpr int kLogEngineWriter = 40;
}  // namespace lockrank

namespace sync_internal {

/// Identity of one lock in the order registry. Lives inside Mutex /
/// SharedMutex; address identity is the graph-node key.
struct LockInfo {
  const char* name;  // never null; "<anonymous>" when unnamed
  int rank;          // -1 = unranked (graph detection only)
};

void OnAcquire(const LockInfo* info);
void OnRelease(const LockInfo* info);
void OnDestroy(const LockInfo* info);

}  // namespace sync_internal

/// Exclusive mutex. Same semantics as std::mutex plus (a) Clang TSA
/// capability attributes and (b) debug-mode lock-order registration.
/// `rank` declares a position in the lock hierarchy (lower acquired first);
/// see DESIGN.md §8 for the repo-wide table.
class LIDI_CAPABILITY("mutex") Mutex {
 public:
  Mutex() : info_{"<anonymous>", -1} {}
  explicit Mutex(const char* name, int rank = -1) : info_{name, rank} {}
  ~Mutex() {
#if LIDI_LOCK_ORDER_CHECKS
    sync_internal::OnDestroy(&info_);
#endif
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LIDI_ACQUIRE() {
#if LIDI_LOCK_ORDER_CHECKS
    sync_internal::OnAcquire(&info_);  // checks order BEFORE blocking
#endif
    mu_.lock();
  }

  void unlock() LIDI_RELEASE() {
    mu_.unlock();
#if LIDI_LOCK_ORDER_CHECKS
    sync_internal::OnRelease(&info_);
#endif
  }

  bool try_lock() LIDI_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if LIDI_LOCK_ORDER_CHECKS
    sync_internal::OnAcquire(&info_);  // cannot block: safe after acquiring
#endif
    return true;
  }

  const char* name() const { return info_.name; }
  int rank() const { return info_.rank; }

 private:
  std::mutex mu_;
  sync_internal::LockInfo info_;  // layout identical with checks off
};

/// Reader/writer mutex with the same annotation + registry contract.
class LIDI_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() : info_{"<anonymous>", -1} {}
  explicit SharedMutex(const char* name, int rank = -1) : info_{name, rank} {}
  ~SharedMutex() {
#if LIDI_LOCK_ORDER_CHECKS
    sync_internal::OnDestroy(&info_);
#endif
  }

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() LIDI_ACQUIRE() {
#if LIDI_LOCK_ORDER_CHECKS
    sync_internal::OnAcquire(&info_);
#endif
    mu_.lock();
  }
  void unlock() LIDI_RELEASE() {
    mu_.unlock();
#if LIDI_LOCK_ORDER_CHECKS
    sync_internal::OnRelease(&info_);
#endif
  }
  void lock_shared() LIDI_ACQUIRE_SHARED() {
    // Shared acquisitions participate in ordering too: reader-then-writer
    // inversions deadlock just as hard.
#if LIDI_LOCK_ORDER_CHECKS
    sync_internal::OnAcquire(&info_);
#endif
    mu_.lock_shared();
  }
  void unlock_shared() LIDI_RELEASE_SHARED() {
    mu_.unlock_shared();
#if LIDI_LOCK_ORDER_CHECKS
    sync_internal::OnRelease(&info_);
#endif
  }

  const char* name() const { return info_.name; }
  int rank() const { return info_.rank; }

 private:
  std::shared_mutex mu_;
  sync_internal::LockInfo info_;
};

/// RAII exclusive lock over Mutex (std::lock_guard replacement, plus
/// explicit Unlock/Lock for the handful of drop-the-lock-across-I/O sites).
class LIDI_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) LIDI_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() LIDI_RELEASE() {
    if (owned_) mu_->unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() LIDI_RELEASE() {
    mu_->unlock();
    owned_ = false;
  }
  void Lock() LIDI_ACQUIRE() {
    mu_->lock();
    owned_ = true;
  }

 private:
  Mutex* const mu_;
  bool owned_ = true;
};

/// RAII shared (reader) lock over SharedMutex.
class LIDI_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) LIDI_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->lock_shared();
  }
  ~ReaderLock() LIDI_RELEASE() { mu_->unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII exclusive (writer) lock over SharedMutex.
class LIDI_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) LIDI_ACQUIRE(mu) : mu_(mu) {
    mu_->lock();
  }
  ~WriterLock() LIDI_RELEASE() { mu_->unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Condition variable bound to lidi::Mutex. Wait sites spell the predicate
/// as a `while (!pred) cv.Wait(&mu);` loop so Clang TSA sees the guarded
/// reads under the held mutex (predicate lambdas would be analysed out of
/// context). The wait path releases/reacquires through Mutex::unlock/lock,
/// so the lock-order registry stays consistent across the block.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases *mu and blocks until notified; reacquires before
  /// returning. Spurious wakeups possible — always loop on the predicate.
  void Wait(Mutex* mu) LIDI_REQUIRES(mu) { cv_.wait(*mu); }

  /// Timed wait; returns false if the timeout elapsed (lock reacquired
  /// either way).
  bool WaitFor(Mutex* mu, std::chrono::milliseconds timeout)
      LIDI_REQUIRES(mu) {
    return cv_.wait_for(*mu, timeout) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace lidi

#endif  // LIDI_COMMON_SYNC_H_
