#ifndef LIDI_KAFKA_LOG_H_
#define LIDI_KAFKA_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/sync.h"
#include "common/clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "io/file.h"
#include "io/group_commit.h"
#include "obs/metrics.h"

namespace lidi::kafka {

struct LogOptions {
  /// Segment roll size ("a set of segment files of approximately the same
  /// size (e.g., 1 GB)", V.B). Tests use small values.
  int64_t segment_bytes = 1 << 20;
  /// Flush after this many appended messages...
  int flush_interval_messages = 1;
  /// ...or after this much time since the first unflushed append.
  int64_t flush_interval_ms = 1000;
  /// Time-based retention SLA (V.B: "e.g., 7 days").
  int64_t retention_ms = 7LL * 24 * 3600 * 1000;
  /// When non-empty, segments are persisted as real files under this
  /// directory ("<base offset>.log"), flushes reach the filesystem, and a
  /// new PartitionLog recovers the existing segments on construction — the
  /// durability model the paper's brokers rely on (V.B: the flush policy and
  /// the OS page cache do the heavy lifting). Empty = in-memory only.
  std::string data_dir;
  /// Filesystem the persistent mode writes through; null = the process-wide
  /// fd-based POSIX fs. Tests inject io::MemFs / io::FaultFs here.
  io::Fs* fs = nullptr;
  /// When accepted bytes are pushed to stable storage (fdatasync): never
  /// (page cache only, the paper's default stance), every
  /// `sync_interval_bytes`, or on every flush. Only synced bytes advance
  /// durable_end_offset() — the crash-survival promise.
  io::SyncPolicy sync = io::SyncPolicy::kNever;
  int64_t sync_interval_bytes = 1 << 20;
  /// Registry for the durability instruments ("io.sync.count",
  /// "io.write.failed", "io.recovery.torn_truncations", and under group
  /// commit "io.group_commit.leader_syncs" / "io.group_commit.piggybacked" /
  /// "io.sync.batch_msgs", labeled layer=kafka.log). Null = not
  /// instrumented.
  obs::MetricsRegistry* metrics = nullptr;
  /// Group commit (persistent kAlways only): durability acks go through
  /// AppendDurable — the first appender becomes the sync leader and its one
  /// fdatasync covers every append staged before it; the rest park on a
  /// condvar (io/group_commit.h). Flushes under this mode write but do not
  /// sync; only the group leader syncs, so N concurrent producers pay ~1
  /// fdatasync per batch instead of N. Off = every flush pays its own sync
  /// inline (the historical behavior).
  bool group_commit = false;
};

/// The log of one topic partition (paper Section V.B, Simple storage): a
/// sequence of segment files. A producer append simply extends the last
/// segment; messages become visible to consumers only after a flush; a
/// message is addressed by its logical byte offset; the broker locates the
/// segment for a requested offset by searching the (in-memory) offset list.
///
/// Storage model (zero-copy read path): the flushed region of every segment
/// is a list of immutable refcounted chunk Buffers, each sealed at a message
/// entry boundary; unflushed bytes live in a writer-private tail. Readers
/// never take the writer mutex — they load the atomic flushed frontier, copy
/// the published snapshot pointer under a micro-mutex that guards only that
/// pointer, and serve PinnedSlices straight out of the sealed chunks (the
/// in-process analogue of Kafka handing the page cache to sendfile, V.B).
/// Appends, flushes and the retention janitor serialize on the writer mutex;
/// a reader holding a PinnedSlice keeps its chunk alive after the janitor
/// drops the segment.
///
/// Thread-safe.
class PartitionLog {
 public:
  PartitionLog(LogOptions options, const Clock* clock);

  /// Appends message-set bytes; returns the offset assigned to the first
  /// byte. The data may not be visible until a flush happens (count/time
  /// policy, or explicit Flush).
  int64_t Append(Slice message_set, int message_count);

  /// Appends message-set bytes and returns the assigned offset only once
  /// the durability the sync policy promises actually holds for them:
  /// under kAlways the entry is covered by a successful fdatasync, under
  /// the other policies it is at least accepted by the fs and consumer-
  /// visible. In group-commit mode the writer lock is NOT held across the
  /// sync — the caller stages its bytes, then parks on the group committer
  /// until a leader's covering sync acknowledges them. An error means the
  /// append was NOT acknowledged; the bytes may still surface after a later
  /// flush (the same indeterminacy a client that crashed before its ack
  /// observes), but no acknowledged write is ever lost.
  Result<int64_t> AppendDurable(Slice message_set, int message_count);

  /// Makes everything appended so far visible to consumers. In group-commit
  /// mode also requests a covering group sync (kAlways flushes stay
  /// durable for legacy callers), best-effort — durability failures surface
  /// through AppendDurable, which is the acknowledged path.
  void Flush();

  /// Zero-copy read: up to max_bytes starting at `offset`, truncated at
  /// entry boundaries (always at least one whole entry when any is
  /// available), from the flushed region. When a single sealed chunk
  /// satisfies the request — the common case — the returned PinnedSlice is
  /// a view into it and no byte is copied; the slice shares ownership of
  /// the chunk, so it remains valid after retention deletes the segment. A
  /// request straddling chunk (or segment) boundaries is gathered into a
  /// fresh owned buffer; when `gathered_bytes` is non-null it receives the
  /// number of bytes memcpy'd that way (0 on the zero-copy path), which the
  /// broker's transfer accounting reports.
  ///
  /// Errors: an offset below start_offset() (expired) fails NotFound; an
  /// offset past end_offset() fails InvalidArgument; an offset that is not
  /// an entry boundary fails InvalidArgument. An empty result means nothing
  /// new at that offset yet.
  ///
  /// Never blocks on appenders, flush I/O, or the janitor: the only lock
  /// taken is the snapshot micro-mutex, held for a pointer copy.
  Result<PinnedSlice> ReadPinned(int64_t offset, int64_t max_bytes,
                                 int64_t* gathered_bytes = nullptr) const;

  /// Copying convenience wrapper over ReadPinned (legacy API): same
  /// semantics, materializes the bytes into a std::string.
  Result<std::string> Read(int64_t offset, int64_t max_bytes) const;

  /// Deletes whole segments whose newest append is older than the retention
  /// SLA. Returns segments deleted. In-flight PinnedSlices keep their
  /// chunk's memory alive; subsequent reads at deleted offsets fail
  /// NotFound.
  int DeleteExpiredSegments();

  int64_t start_offset() const;        // oldest retained offset
  int64_t flushed_end_offset() const;  // first offset not yet readable
  int64_t end_offset() const;          // next offset to be assigned
  int segment_count() const;

  /// First offset NOT covered by a successful fdatasync — the byte boundary
  /// the log promises survives a crash. Advances per the sync policy; in
  /// in-memory mode (no data_dir) it tracks flushed_end_offset(), there
  /// being no crash to survive. Everything below it is also flushed:
  /// durable_end_offset() <= flushed_end_offset().
  int64_t durable_end_offset() const;

  /// Non-OK when constructor-time recovery hit a problem it could not mend
  /// silently: an unreadable segment file (recovery stops there; later
  /// segment files are renamed aside to "<name>.orphan" so appends can
  /// never collide with them) or a torn tail whose on-disk truncation
  /// failed (that segment is sealed; appends move to a fresh file).
  Status recovery_status() const;

 private:
  /// Writer-side segment state, guarded by mu_. `sealed` chunks are
  /// immutable and shared with reader snapshots; `tail` holds unflushed
  /// bytes no reader can observe.
  struct Segment {
    int64_t base_offset = 0;
    std::vector<BufferRef> sealed;
    int64_t sealed_bytes = 0;
    std::string tail;
    int64_t last_append_ms = 0;
    /// Bytes the filesystem accepted into the segment file (persistent
    /// mode). Advances only by what WritableFile::Append reports accepted —
    /// a failed or short write leaves it honest.
    int64_t persisted_bytes = 0;
    /// Prefix of persisted_bytes covered by a successful Sync.
    int64_t synced_bytes = 0;
    /// Cached append handle for the segment file, opened on first persist
    /// and kept until the segment is deleted (the historical open/append/
    /// close per flush was pure overhead). shared_ptr so a group leader can
    /// sync it outside mu_ while the janitor races a retention delete.
    std::shared_ptr<io::WritableFile> file;

    int64_t size() const {
      return sealed_bytes + static_cast<int64_t>(tail.size());
    }
  };

  /// Immutable reader view of one segment's flushed chunks. chunk_end[i] is
  /// the cumulative size of chunks [0..i], relative to base_offset.
  struct ReaderSegment {
    int64_t base_offset = 0;
    std::vector<BufferRef> chunks;
    std::vector<int64_t> chunk_end;
  };
  using Snapshot = std::vector<std::shared_ptr<const ReaderSegment>>;

  /// One chunk-bounded pinned read: never copies, never crosses a sealed
  /// chunk boundary. ReadPinned chains these, gathering only when needed.
  Result<PinnedSlice> ReadPinnedChunk(int64_t offset, int64_t max_bytes) const;

  std::shared_ptr<const Snapshot> LoadSnapshot() const LIDI_EXCLUDES(snapshot_mu_);
  int64_t AppendLocked(Slice message_set, int message_count)
      LIDI_REQUIRES(mu_);
  void MaybeFlushLocked() LIDI_REQUIRES(mu_);
  void FlushLocked() LIDI_REQUIRES(mu_);
  void SealTailLocked(Segment* segment) LIDI_REQUIRES(mu_);
  void PublishSnapshotLocked() LIDI_REQUIRES(mu_);
  void RecoverFromDiskLocked() LIDI_REQUIRES(mu_);
  void PersistSealedLocked() LIDI_REQUIRES(mu_);
  /// Opens (and caches) the segment's append handle. Null on open failure.
  io::WritableFile* SegmentFileLocked(Segment* segment) LIDI_REQUIRES(mu_);
  /// Group-commit SyncFn: snapshots the fully-persisted-but-unsynced
  /// segments under mu_, fdatasyncs them with mu_ RELEASED (appenders keep
  /// staging), then re-locks to advance synced/durable frontiers. Returns
  /// the new durable end offset.
  Result<int64_t> GroupSyncNow() LIDI_EXCLUDES(mu_);
  bool group_mode() const { return group_ != nullptr; }
  std::string SegmentPath(int64_t base_offset) const;
  /// End of the contiguous prefix of the log the fs accepted (synced=false)
  /// or fdatasync'ed (synced=true): stops at the first segment whose
  /// persisted/synced bytes trail its sealed bytes.
  int64_t ContiguousEndLocked(bool synced) const LIDI_REQUIRES(mu_);

  const LogOptions options_;
  const Clock* const clock_;
  /// Null in in-memory mode; otherwise options_.fs or the default POSIX fs.
  io::Fs* const fs_;
  /// Durability instruments (null when options_.metrics is null).
  obs::Counter* sync_count_ = nullptr;
  obs::Counter* write_failed_ = nullptr;
  obs::Counter* torn_truncations_ = nullptr;
  /// Non-null exactly when group commit is active (persistent + kAlways +
  /// options_.group_commit).
  // tsa-ok: set once during construction; the committer is internally
  // synchronized (its own leaf lock).
  std::unique_ptr<io::GroupCommitter> group_;

  /// Writer lock: appends, flush policy, persistence, retention. Readers do
  /// not take it. Ordered before the snapshot micro-mutex (publishing takes
  /// both, writer first).
  mutable Mutex mu_{"kafka.log.writer", lockrank::kKafkaLogWriter};
  Status recovery_status_ LIDI_GUARDED_BY(mu_);
  std::deque<Segment> segments_ LIDI_GUARDED_BY(mu_);
  int unflushed_messages_ LIDI_GUARDED_BY(mu_) = 0;
  int64_t first_unflushed_ms_ LIDI_GUARDED_BY(mu_) = 0;
  /// Accepted-but-unsynced bytes across all segments (drives kInterval).
  int64_t unsynced_bytes_ LIDI_GUARDED_BY(mu_) = 0;
  /// Staging buffer the seal-merge path swaps with its merged chunk, so the
  /// flush-per-append hot path reuses one buffer's capacity instead of
  /// allocating a fresh one per merge.
  std::string merge_scratch_ LIDI_GUARDED_BY(mu_);

  /// Reader-visible state. Writers publish the snapshot before advancing
  /// flushed_end_ (release), and readers load flushed_end_ (acquire) before
  /// the snapshot, so a reader's snapshot always covers everything below the
  /// frontier it saw. snapshot_mu_ guards only the shared_ptr copy — it is
  /// never held across I/O, appends, or chunk scans, so readers cannot be
  /// blocked behind writers (std::atomic<shared_ptr> would express this
  /// directly, but libstdc++'s spinlock implementation releases with a
  /// relaxed RMW, which thread sanitizer rejects under the strict
  /// happens-before model).
  mutable Mutex snapshot_mu_{"kafka.log.snapshot",
                             lockrank::kKafkaLogSnapshot};
  std::shared_ptr<const Snapshot> snapshot_ LIDI_GUARDED_BY(snapshot_mu_);
  std::atomic<int64_t> flushed_end_{0};
  std::atomic<int64_t> durable_end_{0};
  std::atomic<int64_t> end_offset_{0};
};

}  // namespace lidi::kafka

#endif  // LIDI_KAFKA_LOG_H_
