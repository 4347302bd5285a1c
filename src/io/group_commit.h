#ifndef LIDI_IO_GROUP_COMMIT_H_
#define LIDI_IO_GROUP_COMMIT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace lidi::io {

/// Instrumentation for one GroupCommitter (see DESIGN.md §7.1,
/// group-commit protocol).
struct GroupCommitOptions {
  /// Registry for the batching instruments ("io.group_commit.leader_syncs",
  /// "io.group_commit.piggybacked", "io.sync.batch_msgs", labeled
  /// layer=<layer>). Null = not instrumented.
  obs::MetricsRegistry* metrics = nullptr;
  /// Label value for the instruments' {layer=...} label.
  std::string layer = "io";
};

/// Leader-based group commit: the first appender that needs a durability
/// acknowledgement becomes the sync leader and performs ONE covering sync;
/// every appender whose bytes were staged before that sync started parks on
/// a condvar and is acknowledged by the same fdatasync ("piggybacked").
/// This is how real MySQL/Kafka close the sync-per-commit throughput cliff:
/// N concurrent committers share one disk flush instead of paying N. A
/// leader never lingers: its batch is whatever arrived while the previous
/// sync was in flight, so batch size follows sync latency with no timer.
///
/// Coverage rule: targets and the frontier live on one monotone int64 axis
/// chosen by the owner (byte offset of the durable frontier). A SyncTo(t)
/// returns OK once frontier >= t *within the epoch the bytes were staged
/// in* — see below.
///
/// Failure semantics: when a covering sync fails, the owner may roll its
/// file back, after which previously staged byte positions can be REUSED by
/// later appends. A frontier comparison across such a rollback would
/// acknowledge the wrong bytes, so the committer tracks an epoch: every
/// failed sync attempt bumps it, and a waiter whose bytes were staged in an
/// older epoch gets the sync error instead of an ack. False errors are
/// possible (an appender races an unrelated failure) and safe — the write
/// is merely indeterminate, exactly like a client that crashed before its
/// ack; false acks are not possible. Owners that roll back must capture
/// epoch() BEFORE staging bytes and pass it to SyncTo, so any rollback
/// after the capture voids the ack.
///
/// Thread-safe. The internal mutex is never held across the sync callback,
/// so appenders keep staging while a leader's fdatasync is in flight.
class GroupCommitter {
 public:
  /// Performs one covering sync over everything the owner has staged and
  /// returns the new durable frontier (monotone within an epoch). Invoked by
  /// exactly one thread at a time, with no committer lock held — it may take
  /// the owner's writer lock.
  using SyncFn = std::function<Result<int64_t>()>;

  explicit GroupCommitter(SyncFn sync_fn,
                          const GroupCommitOptions& options = {});

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  /// Epoch to capture before staging bytes whose positions a failed sync
  /// could reclaim (rollback owners). Owners that never roll back may use
  /// the single-argument SyncTo instead.
  uint64_t epoch() const;

  /// Blocks until the durable frontier covers `target` (returns OK), or a
  /// sync attempt that could have covered it failed (returns that error —
  /// the append is NOT acknowledged). The calling thread leads the sync when
  /// no leader is active; otherwise it parks until the leader's result.
  Status SyncTo(int64_t target) { return SyncTo(target, epoch()); }
  Status SyncTo(int64_t target, uint64_t staged_epoch);

  int64_t frontier() const;

 private:
  const SyncFn sync_fn_;
  obs::Counter* leader_syncs_ = nullptr;
  obs::Counter* piggybacked_ = nullptr;
  obs::LatencyHistogram* batch_msgs_ = nullptr;

  /// Leaf lock: held only around the state below, released across sync_fn_
  /// and while parked on cv_. Unranked — it nests inside nothing.
  mutable Mutex mu_{"io.group_commit"};
  CondVar cv_;
  int64_t frontier_ LIDI_GUARDED_BY(mu_) = 0;
  bool leader_active_ LIDI_GUARDED_BY(mu_) = false;
  int waiting_ LIDI_GUARDED_BY(mu_) = 0;
  /// Bumped on every failed sync attempt; frontier comparisons are only
  /// meaningful within one epoch (see class comment).
  uint64_t epoch_ LIDI_GUARDED_BY(mu_) = 0;
  Status last_error_ LIDI_GUARDED_BY(mu_);
};

}  // namespace lidi::io

#endif  // LIDI_IO_GROUP_COMMIT_H_
