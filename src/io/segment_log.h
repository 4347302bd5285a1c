#ifndef LIDI_IO_SEGMENT_LOG_H_
#define LIDI_IO_SEGMENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "common/sync.h"
#include "io/file.h"
#include "io/group_commit.h"
#include "obs/metrics.h"

namespace lidi::io {

struct SegmentLogOptions {
  /// Segment files live here as "<base offset, 20 digits>.log".
  std::string dir;
  /// Null = the process-wide fd-based POSIX fs.
  Fs* fs = nullptr;
  SyncPolicy sync = SyncPolicy::kNever;
  int64_t sync_interval_bytes = 1 << 20;
  /// kAlways only: syncs run through a GroupCommitter (SyncTo), never
  /// inline.
  bool group_commit = false;
  /// Registry for "io.sync.count", "io.write.failed",
  /// "io.recovery.torn_truncations" and the group-commit instruments,
  /// labeled layer=<layer>. Null = not instrumented.
  obs::MetricsRegistry* metrics = nullptr;
  std::string layer;
};

/// The durable half of a log (paper V.B: a set of segment files written
/// under a flush policy, retention deleting whole segments): segment files
/// named by the log offset of their first byte, written in log order. The
/// owner keeps its record format and its in-memory copy; this class keeps
/// the files, the sync policy, group commit, recovery, retention deletes and
/// ranged reads of the files.
///
/// The files always hold a contiguous prefix of the log: written_end() is
/// where the next write lands and synced_end() <= written_end() what a crash
/// keeps. Failure rules:
/// - A failed or short write is truncated back off its file; the log stays
///   as it was.
/// - A failed sync truncates the bytes whose acknowledgement waits on it:
///   from SyncIfDue's `waiting_from` inline, every unsynced byte in group
///   mode.
/// - A truncate that fails, a file recovery cannot read, or a file past a
///   recovery hole that can be neither set aside nor emptied leaves bytes
///   the log does not account for where its writes go: status() turns
///   non-OK and every later write is refused until a reopen recovers.
///
/// Thread safety: the owner's writer lock (`owner_mu`) guards all state.
/// Every method runs with it held, except ReadRange (lock-free), epoch and
/// SyncTo (the committer's own leaf lock), which take it only through the
/// group sync: that reacquires it to pick the files, releases it across
/// each fdatasync, and holds it again while the frontier moves or the
/// unsynced bytes roll back, and while `on_group_sync` runs.
class SegmentLog {
 public:
  /// Recovery scan: handed each segment file's bytes in log order, returns
  /// the length of their clean prefix. It may move the bytes out.
  using ScanFn = std::function<int64_t(int64_t base_offset, std::string*)>;
  /// Runs under the owner's lock after each group sync: OK once the synced
  /// frontier moved, the sync's error once the unsynced bytes rolled back.
  using SyncedFn = std::function<void(const Status&)>;

  SegmentLog(SegmentLogOptions options, Mutex* owner_mu,
             SyncedFn on_group_sync);
  SegmentLog(const SegmentLog&) = delete;
  SegmentLog& operator=(const SegmentLog&) = delete;

  /// Recovers the directory, once, before any write: keeps the files that
  /// continue the log densely, truncates each torn tail the scan finds, and
  /// renames every file past a hole aside ("<name>.orphan") so no write
  /// lands in it. A missing or torn file is a power loss's ordinary
  /// footprint and leaves status() OK. A janitor that could not unlink an
  /// expired file empties it, so an empty file ahead of the log is skipped.
  void Recover(const ScanFn& scan);

  /// Appends `data` at written_end(). It must not run past the segment that
  /// offset lies in.
  Status Write(Slice data);
  /// Syncs inline when the policy makes a sync due (never in group mode).
  /// On failure the bytes from `waiting_from` on are truncated back.
  Status SyncIfDue(int64_t waiting_from);

  bool group_mode() const { return group_ != nullptr; }
  /// Group mode: capture before writing, pass to SyncTo (group_commit.h).
  uint64_t epoch() const { return group_->epoch(); }
  /// Group mode: waits, without the owner's lock, until a group sync covers
  /// `target` (OK) or one fails.
  Status SyncTo(int64_t target, uint64_t staged_epoch) {
    return group_->SyncTo(target, staged_epoch);
  }

  /// Starts a segment at `base_offset`, where the previous one ends.
  void Roll(int64_t base_offset);
  /// Deletes, oldest first, each segment that ends at or below `floor` (the
  /// last one when `floor` is past its base), and starts a fresh segment at
  /// `floor` if none is left. A file that can be neither removed nor emptied
  /// stops the sweep; the next call retries it. Returns segments deleted.
  int DeleteBelow(int64_t floor);

  /// Reads `size` bytes at `pos` of the segment at `base_offset`. A read
  /// below a deleted segment's end (one DeleteBelow removed under it) fails
  /// NotFound; any other failure, and a file shorter than the range
  /// (Corruption), is returned as an error.
  Status ReadRange(int64_t base_offset, int64_t pos, int64_t size,
                   std::string* out) const;

  int64_t written_end() const { return written_end_; }
  int64_t synced_end() const { return synced_end_; }
  const Status& status() const { return status_; }

 private:
  struct Segment {
    int64_t base_offset = 0;
    /// Opened on the first write; shared so a group leader can sync it
    /// without the owner's lock while the janitor deletes the segment.
    std::shared_ptr<WritableFile> file;
  };

  std::string SegmentPath(int64_t base_offset) const;
  /// Index of the last segment starting at or before `offset`.
  size_t SegmentAt(int64_t offset) const;
  /// Syncs the files holding [synced_end_, end), in order. A group leader
  /// passes its lock, released across each fdatasync.
  Status SyncThrough(int64_t end, MutexLock* lock);
  /// Truncates every byte at or past `to` off the files.
  void RollBackTo(int64_t to);
  Result<int64_t> GroupSyncNow();
  void Fail(const Status& s) {
    if (status_.ok()) status_ = s;
  }

  const SegmentLogOptions options_;
  Fs* const fs_;
  Mutex* const owner_mu_;
  const SyncedFn on_group_sync_;
  obs::Counter* sync_count_ = nullptr;
  obs::Counter* write_failed_ = nullptr;
  obs::Counter* torn_truncations_ = nullptr;
  /// Non-null exactly in group mode (kAlways + group_commit).
  std::unique_ptr<GroupCommitter> group_;

  std::deque<Segment> segments_;
  int64_t written_end_ = 0;
  int64_t synced_end_ = 0;
  Status status_;
  /// Offsets below this are deleted: DeleteBelow stores it before it
  /// unlinks a file, so a read whose file vanished under it can tell an
  /// expired offset (NotFound) from a failing filesystem.
  std::atomic<int64_t> expired_end_{0};
};

}  // namespace lidi::io

#endif  // LIDI_IO_SEGMENT_LOG_H_
