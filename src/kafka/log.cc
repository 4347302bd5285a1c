#include "kafka/log.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "kafka/message.h"

namespace lidi::kafka {

namespace {
inline void Inc(obs::Counter* counter) {
  if (counter != nullptr) counter->Increment();
}
}  // namespace

std::string PartitionLog::SegmentPath(int64_t base_offset) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%020lld.log",
                static_cast<long long>(base_offset));
  return options_.data_dir + "/" + name;
}

void PartitionLog::RecoverFromDiskLocked() {
  Status mkdir = fs_->CreateDirs(options_.data_dir);
  if (!mkdir.ok() && recovery_status_.ok()) {
    // No data dir means every later append fails too — but those failures
    // are per-write; this one marks the log unhealthy from the start.
    recovery_status_ = mkdir;
  }
  std::vector<int64_t> bases;
  auto names = fs_->ListDir(options_.data_dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      if (name.size() == 24 && name.substr(20) == ".log") {
        bases.push_back(std::atoll(name.c_str()));
      }
    }
  } else if (recovery_status_.ok()) {
    recovery_status_ = names.status();
  }
  std::sort(bases.begin(), bases.end());
  bool seal_last_segment = false;
  size_t first_aside = bases.size();  // the files recovery sets aside
  for (size_t bi = 0; bi < bases.size(); ++bi) {
    const int64_t base = bases[bi];
    if (!segments_.empty() &&
        base != segments_.back().base_offset + segments_.back().sealed_bytes) {
      // The offset space stays dense: this file does not start where the
      // recovered log ends, because a torn or missing file lies between.
      // Serving it would leave a hole every consumer stalls at, and the
      // next append would land past the hole. Stop here, as Kafka's own
      // recovery does; a power loss cuts only unsynced bytes, so nothing
      // below durable_end_offset() is dropped.
      Inc(torn_truncations_);
      first_aside = bi;
      break;
    }
    std::string data;
    Status read_status = fs_->ReadFile(SegmentPath(base), &data);
    if (!read_status.ok()) {
      // An unreadable segment is a hole in the offset space too, and one
      // recovery cannot explain: surface the error as well.
      if (recovery_status_.ok()) recovery_status_ = read_status;
      first_aside = bi;
      break;
    }
    if (data.empty() && segments_.empty() && bi + 1 < bases.size()) {
      // A janitor that cannot unlink an expired file empties it instead;
      // such a file ahead of the log holds no offsets.
      continue;
    }
    seal_last_segment = false;
    // Keep only the prefix of complete, CRC-valid entries. The length
    // prefix alone is not proof of integrity — torn garbage can parse as a
    // plausible length — so validate each entry's payload CRC (the wire
    // format carries one per message, message.h). The CRC does not cover
    // the attributes byte, so an entry must also decode under the codec
    // that byte names.
    int64_t good = 0;
    Slice scan(data);
    while (scan.size() >= 4) {
      const uint32_t length = DecodeFixed32(scan.data());
      if (length < 5) break;  // shorter than attributes+crc: torn header
      if (scan.size() < 4 + static_cast<size_t>(length)) break;
      const uint32_t crc = DecodeFixed32(scan.data() + 5);
      const Slice payload(scan.data() + 9, length - 5);
      if (Crc32(payload) != crc) break;  // plausible length, corrupt bytes
      const Slice entry(scan.data(), 4 + static_cast<size_t>(length));
      if (static_cast<CompressionCodec>(scan[4]) != CompressionCodec::kNone &&
          !CountMessages(entry).ok()) {
        break;
      }
      scan.RemovePrefix(entry.size());
      good += static_cast<int64_t>(entry.size());
    }
    if (good < static_cast<int64_t>(data.size())) {
      data.resize(static_cast<size_t>(good));
      // Drop the torn bytes from the file too, so later appends continue
      // from the last complete entry rather than after garbage.
      Inc(torn_truncations_);
      Status truncate_status =
          fs_->TruncateFile(SegmentPath(base), good);
      if (!truncate_status.ok()) {
        // The garbage stays on disk past `good`; appending to this file
        // would bury it between valid entries. Seal the segment instead.
        if (recovery_status_.ok()) recovery_status_ = truncate_status;
        Inc(write_failed_);
        seal_last_segment = true;
      }
    }
    Segment segment;
    segment.base_offset = base;
    segment.sealed_bytes = good;
    segment.persisted_bytes = good;
    segment.synced_bytes = good;  // on-disk bytes survived the restart
    segment.last_append_ms = clock_->NowMillis();
    if (good > 0) segment.sealed.push_back(WrapBuffer(std::move(data)));
    segments_.push_back(std::move(segment));
    ReleaseRolledChunksLocked();  // only the newest segment stays in memory
  }
  // Rename every file past the hole aside ("<name>.orphan"), so a growing
  // log can never append into them.
  for (size_t j = first_aside; j < bases.size(); ++j) {
    const std::string path = SegmentPath(bases[j]);
    Status renamed = fs_->RenameFile(path, path + ".orphan");
    // Failing that, the stale file keeps its live name: once the log grows
    // back to this base offset, OpenAppend (O_APPEND, no truncate) would
    // write after the stale bytes. Emptying the file defuses that.
    if (!renamed.ok() && !fs_->TruncateFile(path, 0).ok() &&
        recovery_status_.ok()) {
      recovery_status_ = renamed;
    }
  }
  if (segments_.empty()) {
    Segment segment;
    segment.last_append_ms = clock_->NowMillis();
    segments_.push_back(std::move(segment));
  } else {
    if (seal_last_segment) {
      // The last recovered file still carries garbage we could not
      // truncate; new appends go to a fresh segment file.
      Segment fresh;
      fresh.base_offset =
          segments_.back().base_offset + segments_.back().sealed_bytes;
      fresh.last_append_ms = clock_->NowMillis();
      segments_.push_back(std::move(fresh));
      ReleaseRolledChunksLocked();
    }
    // Everything recovered from disk is flushed and crash-durable.
    const int64_t recovered_end = segments_.back().base_offset +
                                  segments_.back().sealed_bytes;
    flushed_end_.store(recovered_end);
    durable_end_.store(recovered_end);
  }
  end_offset_.store(segments_.back().base_offset + segments_.back().size());
}

io::WritableFile* PartitionLog::SegmentFileLocked(Segment* segment) {
  if (segment->file == nullptr) {
    auto file = fs_->OpenAppend(SegmentPath(segment->base_offset));
    if (!file.ok()) return nullptr;
    segment->file = std::move(file.value());
  }
  return segment->file.get();
}

void PartitionLog::PersistSealedLocked() {
  if (fs_ == nullptr) return;
  // Decide up front whether this flush must reach stable storage. Under
  // group commit flushes only WRITE: the one covering fdatasync belongs to
  // the group leader (GroupSyncNow), which runs outside mu_.
  int64_t pending = 0;
  for (const Segment& segment : segments_) {
    pending += segment.sealed_bytes - segment.persisted_bytes;
  }
  const bool sync_due =
      !group_mode() &&
      (options_.sync == io::SyncPolicy::kAlways ||
       (options_.sync == io::SyncPolicy::kInterval &&
        unsynced_bytes_ + pending >= options_.sync_interval_bytes));
  for (Segment& segment : segments_) {
    const bool needs_write = segment.persisted_bytes < segment.sealed_bytes;
    const bool needs_sync =
        sync_due && segment.synced_bytes < segment.sealed_bytes;
    if (!needs_write && !needs_sync) continue;
    io::WritableFile* file = SegmentFileLocked(&segment);
    if (file == nullptr) {
      Inc(write_failed_);
      break;  // keep the durable prefix contiguous; retry next flush
    }
    // Write the segment's unpersisted chunks in order, stopping at the
    // first error or short write: a later chunk must never land in the file
    // behind an earlier one that fell short.
    bool failed = false;
    int64_t chunk_base = 0;
    for (const BufferRef& chunk : segment.sealed) {
      const int64_t chunk_end =
          chunk_base + static_cast<int64_t>(chunk->size());
      if (segment.persisted_bytes < chunk_end) {
        const Slice piece(
            chunk->data() + (segment.persisted_bytes - chunk_base),
            static_cast<size_t>(chunk_end - segment.persisted_bytes));
        int64_t accepted = 0;
        const Status s = file->Append(piece, &accepted);
        // Advance only past bytes the fs actually took: a short write or
        // ENOSPC must not mark lost bytes durable. The next flush resumes
        // from the honest boundary.
        segment.persisted_bytes += accepted;
        if (!s.ok() || accepted < static_cast<int64_t>(piece.size())) {
          Inc(write_failed_);
          failed = true;
          break;
        }
      }
      chunk_base = chunk_end;
    }
    if (failed) break;
    if (needs_sync) {
      // sync-choke-point: the inline per-flush fdatasync (kAlways without
      // group commit, and kInterval once its threshold is crossed).
      const Status s = file->Sync();
      if (!s.ok()) {
        Inc(write_failed_);
        break;
      }
      Inc(sync_count_);
      segment.synced_bytes = segment.persisted_bytes;
    }
  }
  int64_t unsynced = 0;
  for (const Segment& segment : segments_) {
    unsynced += segment.persisted_bytes - segment.synced_bytes;
  }
  unsynced_bytes_ = unsynced;
  durable_end_.store(
      std::max(durable_end_.load(), ContiguousEndLocked(/*synced=*/true)));
}

int64_t PartitionLog::ContiguousEndLocked(bool synced) const {
  int64_t end = segments_.front().base_offset;
  for (const Segment& segment : segments_) {
    int64_t bytes = synced ? segment.synced_bytes : segment.persisted_bytes;
    if (!synced && bytes < segment.sealed_bytes) {
      // A short write can leave persisted_bytes mid-entry. Floor the
      // consumer-visible frontier to the last fully-persisted sealed-chunk
      // boundary — chunks seal at entry boundaries, so readers never see a
      // frontier cutting through an entry. (synced_bytes needs no flooring:
      // syncs only happen after a segment persists completely.)
      int64_t aligned = 0;
      int64_t acc = 0;
      for (const BufferRef& chunk : segment.sealed) {
        acc += static_cast<int64_t>(chunk->size());
        if (bytes < acc) break;
        aligned = acc;
      }
      bytes = aligned;
    }
    end = segment.base_offset + bytes;
    if (bytes < segment.sealed_bytes) break;
  }
  return end;
}

PartitionLog::PartitionLog(LogOptions options, const Clock* clock)
    : options_(std::move(options)),
      clock_(clock),
      fs_(options_.data_dir.empty()
              ? nullptr
              : (options_.fs != nullptr ? options_.fs : io::DefaultFs())) {
  if (options_.metrics != nullptr) {
    const obs::Labels labels{{"layer", "kafka.log"}};
    sync_count_ = options_.metrics->GetCounter("io.sync.count", labels);
    write_failed_ = options_.metrics->GetCounter("io.write.failed", labels);
    torn_truncations_ =
        options_.metrics->GetCounter("io.recovery.torn_truncations", labels);
  }
  if (fs_ != nullptr && options_.sync == io::SyncPolicy::kAlways &&
      options_.group_commit) {
    io::GroupCommitOptions group_options;
    group_options.metrics = options_.metrics;
    group_options.layer = "kafka.log";
    group_ = std::make_unique<io::GroupCommitter>(
        [this] { return GroupSyncNow(); }, group_options);
  }
  // No concurrent access yet, but the *Locked() helpers require mu_ — and
  // taking it keeps the thread-safety analysis airtight for free.
  MutexLock lock(&mu_);
  if (fs_ != nullptr) {
    RecoverFromDiskLocked();
  } else {
    Segment segment;
    segment.last_append_ms = clock_->NowMillis();
    segments_.push_back(std::move(segment));
  }
  PublishSnapshotLocked();
}

/// Seals the segment's unflushed tail into an immutable chunk. Adjacent
/// chunks merge geometrically (merge while the previous chunk is no larger
/// than the new one), which bounds both the chunk count per segment at
/// O(log segment_bytes) and the amortized re-copy cost per byte at
/// O(log segment_bytes) — flush-per-append workloads neither fragment the
/// segment into per-entry chunks nor degenerate into quadratic copying.
void PartitionLog::SealTailLocked(Segment* segment) {
  if (segment->tail.empty()) return;
  segment->sealed_bytes += static_cast<int64_t>(segment->tail.size());
  std::string chunk_data = std::move(segment->tail);
  segment->tail.clear();
  while (!segment->sealed.empty() &&
         segment->sealed.back()->size() <= chunk_data.size()) {
    const BufferRef& prev = segment->sealed.back();
    merge_scratch_.clear();
    merge_scratch_.reserve(prev->size() + chunk_data.size());
    merge_scratch_.append(prev->data(), prev->size());
    merge_scratch_.append(chunk_data);
    chunk_data.swap(merge_scratch_);  // old chunk_data buffer becomes the
                                      // next merge's scratch
    segment->sealed.pop_back();
  }
  segment->sealed.push_back(WrapBuffer(std::move(chunk_data)));
}

void PartitionLog::ReleaseRolledChunksLocked() {
  if (fs_ == nullptr) return;  // in-memory mode: the chunks are the log
  // Segments persist in order, so they release in order: the scan back
  // from the active segment stops at the first one already released.
  for (size_t i = segments_.size() - 1; i-- > 0;) {
    Segment& segment = segments_[i];
    if (segment.sealed.empty()) break;
    if (segment.persisted_bytes == segment.sealed_bytes) {
      segment.sealed.clear();
    }
  }
}

void PartitionLog::PublishSnapshotLocked() {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->reserve(segments_.size());
  auto previous = LoadSnapshot();
  for (const Segment& segment : segments_) {
    // Reuse the previous snapshot's ReaderSegment when the segment's sealed
    // chunk list is unchanged (same base, same chunk count and total) —
    // the common case for all but the tail segment. The previous snapshot
    // is sorted by base_offset, so a binary search finds the candidate. A
    // segment that released its chunks changes its count.
    std::shared_ptr<const ReaderSegment> reuse;
    if (previous) {
      auto it = std::lower_bound(
          previous->begin(), previous->end(), segment.base_offset,
          [](const std::shared_ptr<const ReaderSegment>& rs, int64_t base) {
            return rs->base_offset < base;
          });
      if (it != previous->end() &&
          (*it)->base_offset == segment.base_offset &&
          (*it)->chunks.size() == segment.sealed.size() &&
          (*it)->bytes == segment.sealed_bytes) {
        reuse = *it;
      }
    }
    if (reuse != nullptr) {
      snapshot->push_back(std::move(reuse));
      continue;
    }
    auto rs = std::make_shared<ReaderSegment>();
    rs->base_offset = segment.base_offset;
    rs->bytes = segment.sealed_bytes;
    rs->chunks = segment.sealed;
    rs->chunk_end.reserve(segment.sealed.size());
    int64_t end = 0;
    for (const BufferRef& c : segment.sealed) {
      end += static_cast<int64_t>(c->size());
      rs->chunk_end.push_back(end);
    }
    snapshot->push_back(std::move(rs));
  }
  std::shared_ptr<const Snapshot> fresh = std::move(snapshot);
  {
    MutexLock lock(&snapshot_mu_);
    snapshot_.swap(fresh);
  }
  // `fresh` now holds the previous snapshot; it destructs here, outside
  // the micro-mutex, so readers never wait on chunk teardown.
}

std::shared_ptr<const PartitionLog::Snapshot> PartitionLog::LoadSnapshot()
    const {
  MutexLock lock(&snapshot_mu_);
  return snapshot_;
}

int64_t PartitionLog::Append(Slice message_set, int message_count) {
  MutexLock lock(&mu_);
  return AppendLocked(message_set, message_count);
}

int64_t PartitionLog::AppendLocked(Slice message_set, int message_count) {
  Segment* active = &segments_.back();
  if (active->size() >= options_.segment_bytes) {
    Segment next;
    next.base_offset = active->base_offset + active->size();
    next.last_append_ms = clock_->NowMillis();
    segments_.push_back(std::move(next));
    active = &segments_.back();
    PublishSnapshotLocked();  // readers learn the new segment's base
  }
  const int64_t offset = active->base_offset + active->size();
  active->tail.append(message_set.data(), message_set.size());
  active->last_append_ms = clock_->NowMillis();
  end_offset_.store(offset + static_cast<int64_t>(message_set.size()));
  if (unflushed_messages_ == 0) first_unflushed_ms_ = clock_->NowMillis();
  unflushed_messages_ += message_count;
  MaybeFlushLocked();
  return offset;
}

void PartitionLog::MaybeFlushLocked() {
  const bool count_due = unflushed_messages_ >= options_.flush_interval_messages;
  const bool time_due =
      unflushed_messages_ > 0 &&
      clock_->NowMillis() - first_unflushed_ms_ >= options_.flush_interval_ms;
  if (count_due || time_due) FlushLocked();
}

void PartitionLog::FlushLocked() {
  for (Segment& segment : segments_) SealTailLocked(&segment);
  unflushed_messages_ = 0;
  PersistSealedLocked();
  ReleaseRolledChunksLocked();
  // Publish order matters for the lock-free readers: snapshot first, then
  // the frontier, so a reader that sees the new frontier is guaranteed a
  // snapshot containing every chunk below it.
  PublishSnapshotLocked();
  // The consumer-visible frontier advances only past bytes the fs actually
  // accepted (persistent mode) — a failed write must not expose offsets
  // that vanish on restart. In-memory mode has no fs to disagree with.
  int64_t visible = segments_.back().base_offset +
                    segments_.back().sealed_bytes;
  if (fs_ != nullptr) {
    visible = ContiguousEndLocked(/*synced=*/false);
  }
  flushed_end_.store(std::max(flushed_end_.load(), visible));
  if (fs_ == nullptr) {
    durable_end_.store(flushed_end_.load());
  }
}

void PartitionLog::Flush() {
  int64_t target = 0;
  {
    MutexLock lock(&mu_);
    FlushLocked();
    target = flushed_end_.load();
  }
  // kAlways legacy callers expect a flush to reach stable storage; in group
  // mode that fdatasync belongs to the committer and runs with mu_ released.
  // discard-ok: best effort — the acknowledged path is AppendDurable.
  if (group_mode() && target > durable_end_.load()) {
    (void)group_->SyncTo(target);
  }
}

Result<int64_t> PartitionLog::AppendDurable(Slice message_set,
                                            int message_count) {
  const int64_t set_bytes = static_cast<int64_t>(message_set.size());
  if (!group_mode()) {
    const int64_t offset = Append(message_set, message_count);
    Flush();
    if (fs_ == nullptr) return offset;  // in-memory: flushed == durable
    const int64_t entry_end = offset + set_bytes;
    const int64_t covered = options_.sync == io::SyncPolicy::kAlways
                                ? durable_end_.load()
                                : flushed_end_.load();
    if (covered < entry_end) {
      return Status::IOError(
          "append not acknowledged (write or sync failed)");
    }
    return offset;
  }
  // Group commit: stage (append + write-only flush) under mu_, then hand
  // the fdatasync to the group committer with mu_ RELEASED — concurrent
  // appenders stage into the same batch while the leader's sync is in
  // flight. Kafka never rolls the file back on a failed sync, so the epoch
  // capture is belt-and-braces (see io/group_commit.h).
  const uint64_t staged_epoch = group_->epoch();
  int64_t offset = 0;
  int64_t entry_end = 0;
  {
    MutexLock lock(&mu_);
    offset = AppendLocked(message_set, message_count);
    entry_end = offset + set_bytes;
    FlushLocked();
    if (ContiguousEndLocked(/*synced=*/false) < entry_end) {
      // Short write / ENOSPC: the entry is not fully in the file, so no
      // sync can cover it this round. Later flushes retry the write; this
      // append stays unacknowledged.
      return Status::IOError("append not fully accepted by fs");
    }
  }
  Status s = group_->SyncTo(entry_end, staged_epoch);
  if (!s.ok()) return s;
  return offset;
}

Result<int64_t> PartitionLog::GroupSyncNow() {
  struct ToSync {
    std::shared_ptr<io::WritableFile> file;
    int64_t base_offset = 0;
    int64_t target = 0;  // persisted (== sealed) bytes the sync covers
  };
  std::vector<ToSync> to_sync;
  {
    MutexLock lock(&mu_);
    for (Segment& segment : segments_) {
      if (segment.persisted_bytes < segment.sealed_bytes) {
        // Hole (failed/short write): syncing later segments cannot extend
        // the contiguous durable frontier; stop at the honest boundary.
        break;
      }
      if (segment.file != nullptr &&
          segment.synced_bytes < segment.persisted_bytes) {
        to_sync.push_back(
            {segment.file, segment.base_offset, segment.persisted_bytes});
      }
    }
  }
  Status fail;
  size_t done = 0;
  for (; done < to_sync.size(); ++done) {
    // sync-choke-point: the group leader's one covering fdatasync — the
    // only sync the kAlways group path ever issues, with mu_ released so
    // appenders keep staging the next batch.
    Status s = to_sync[done].file->Sync();
    if (!s.ok()) {
      fail = s;
      break;  // keep the durable prefix contiguous
    }
  }
  MutexLock lock(&mu_);
  for (size_t i = 0; i < done; ++i) {
    for (Segment& segment : segments_) {
      if (segment.base_offset == to_sync[i].base_offset) {
        // The file may hold more than `target` by now (appends staged while
        // we were at the disk); fdatasync covered those too, but claiming
        // only the snapshot value keeps synced_bytes entry-aligned.
        segment.synced_bytes =
            std::max(segment.synced_bytes, to_sync[i].target);
        break;
      }
    }
    Inc(sync_count_);
  }
  if (!fail.ok()) Inc(write_failed_);
  int64_t unsynced = 0;
  for (const Segment& segment : segments_) {
    unsynced += segment.persisted_bytes - segment.synced_bytes;
  }
  unsynced_bytes_ = unsynced;
  const int64_t durable =
      std::max(durable_end_.load(), ContiguousEndLocked(/*synced=*/true));
  durable_end_.store(durable);
  if (!fail.ok()) return fail;
  return durable;
}

namespace {

/// Bytes of the whole entries at the front of data[0, size): at most
/// max_bytes of them, but at least the first entry when it fits `size`.
int64_t WholeEntries(const char* data, int64_t size, int64_t max_bytes) {
  int64_t take = 0;
  while (take + 4 <= size) {
    const int64_t entry = 4 + static_cast<int64_t>(DecodeFixed32(data + take));
    if (take + entry > size) break;
    if (take > 0 && take + entry > max_bytes) break;
    take += entry;
    if (take >= max_bytes) break;
  }
  return take;
}

Status NotAnEntry() {
  return Status::InvalidArgument(
      "offset not at an entry boundary or entry exceeds visible region");
}

}  // namespace

Result<PinnedSlice> PartitionLog::ReadPinnedChunk(int64_t offset,
                                                  int64_t max_bytes,
                                                  int64_t* copied) const {
  // Load the frontier before the snapshot (writers store in the opposite
  // order), so the snapshot covers everything below the frontier we serve.
  const int64_t flushed_end = flushed_end_.load();
  const std::shared_ptr<const Snapshot> snapshot = LoadSnapshot();
  if (offset < snapshot->front()->base_offset) {
    return Status::NotFound(
        "offset " + std::to_string(offset) + " expired (log starts at " +
        std::to_string(snapshot->front()->base_offset) + ")");
  }
  if (offset >= flushed_end) {
    if (offset > end_offset_.load()) {
      return Status::InvalidArgument("offset beyond log end");
    }
    return PinnedSlice();  // nothing visible yet
  }
  // Locate the segment: the last one with base_offset <= offset.
  auto it = std::upper_bound(
      snapshot->begin(), snapshot->end(), offset,
      [](int64_t o, const std::shared_ptr<const ReaderSegment>& s) {
        return o < s->base_offset;
      });
  --it;
  const ReaderSegment& segment = **it;
  const int64_t pos = offset - segment.base_offset;
  const int64_t segment_visible =
      std::min(segment.bytes, flushed_end - segment.base_offset);
  if (pos >= segment_visible) return PinnedSlice();
  if (segment.chunks.empty()) {
    return ReadRolled(segment.base_offset, pos, segment_visible, max_bytes,
                      copied);
  }
  // Locate the chunk holding pos: first chunk whose end exceeds it.
  const size_t chunk_index = static_cast<size_t>(
      std::upper_bound(segment.chunk_end.begin(), segment.chunk_end.end(),
                       pos) -
      segment.chunk_end.begin());
  const BufferRef& chunk = segment.chunks[chunk_index];
  const int64_t chunk_base =
      chunk_index == 0 ? 0 : segment.chunk_end[chunk_index - 1];
  const int64_t cpos = pos - chunk_base;
  const int64_t visible =
      std::min(static_cast<int64_t>(chunk->size()),
               segment_visible - chunk_base);

  // Truncate at entry boundaries within the chunk's visible window,
  // returning at least one whole entry when any fits it.
  const int64_t take =
      WholeEntries(chunk->data() + cpos, visible - cpos, max_bytes);
  if (take == 0) return NotAnEntry();
  return PinnedSlice(Slice(chunk->data() + cpos, static_cast<size_t>(take)),
                     chunk);
}

Result<PinnedSlice> PartitionLog::ReadRolled(int64_t base_offset, int64_t pos,
                                             int64_t visible,
                                             int64_t max_bytes,
                                             int64_t* copied) const {
  // The first read covers the budget, and at least an entry header.
  const int64_t available = visible - pos;
  const int64_t want = std::min(available, std::max<int64_t>(max_bytes, 4));
  std::string bytes;
  Status s = ReadSegmentFile(base_offset, pos, want, &bytes);
  if (!s.ok()) return s;
  int64_t take = WholeEntries(bytes.data(),
                              static_cast<int64_t>(bytes.size()), max_bytes);
  if (take == 0 && bytes.size() >= 4) {
    // The first entry alone outruns the budget: read all of it.
    const int64_t entry = 4 + static_cast<int64_t>(DecodeFixed32(bytes.data()));
    if (entry > available) return NotAnEntry();
    s = ReadSegmentFile(base_offset, pos, entry, &bytes);
    if (!s.ok()) return s;
    take = entry;
  }
  if (take == 0) return NotAnEntry();
  bytes.resize(static_cast<size_t>(take));
  *copied += take;
  return PinnedSlice::Own(std::move(bytes));
}

Status PartitionLog::ReadSegmentFile(int64_t base_offset, int64_t pos,
                                     int64_t size, std::string* out) const {
  const std::string path = SegmentPath(base_offset);
  Status s = fs_->ReadRange(path, pos, size, out);
  if (s.ok() && static_cast<int64_t>(out->size()) < size) {
    s = Status::Corruption(path + " ends before the " +
                           std::to_string(pos + size) +
                           " bytes the log sealed into it");
  }
  // A file the janitor unlinked under this read (or emptied, failing the
  // unlink) means the offset expired. Anything else stays an error: a
  // consumer reads NotFound as "restart from the head" and would skip data.
  if (!s.ok() && base_offset + pos < expired_end_.load()) {
    return Status::NotFound("offset " + std::to_string(base_offset + pos) +
                            " expired during the read");
  }
  return s;
}

Result<PinnedSlice> PartitionLog::ReadPinned(int64_t offset, int64_t max_bytes,
                                             int64_t* gathered_bytes) const {
  int64_t copied = 0;
  auto first = ReadPinnedChunk(offset, max_bytes, &copied);
  if (gathered_bytes != nullptr) *gathered_bytes = copied;
  if (!first.ok() || first.value().empty()) return first;
  int64_t have = static_cast<int64_t>(first.value().size());
  if (have >= max_bytes) return first;

  // More budget left: see whether further entries continue in the next
  // chunk (or segment). If not, the single-chunk view is the zero-copy
  // fast path; otherwise gather the chain into one owned buffer so callers
  // get the same whole-entries-up-to-max_bytes contract regardless of how
  // flushes happened to chunk the log. A continuation that fails ends the
  // reply early; the caller's next read at that offset reports it.
  auto next = ReadPinnedChunk(offset + have, max_bytes - have, &copied);
  if (!next.ok() || next.value().empty() ||
      static_cast<int64_t>(next.value().size()) > max_bytes - have) {
    // The at-least-one-entry rule only applies to the start of a read: a
    // continuation entry that would overflow the budget is left for the
    // caller's next fetch.
    return first;
  }
  // The pieces are pinned first, so the copy reserves only what it gathers:
  // max_bytes is the caller's budget, which may be far beyond the log.
  std::vector<PinnedSlice> pieces;
  pieces.push_back(std::move(first.value()));
  have += static_cast<int64_t>(next.value().size());
  pieces.push_back(std::move(next.value()));
  while (have < max_bytes) {
    auto more = ReadPinnedChunk(offset + have, max_bytes - have, &copied);
    if (!more.ok() || more.value().empty() ||
        static_cast<int64_t>(more.value().size()) > max_bytes - have) {
      break;
    }
    have += static_cast<int64_t>(more.value().size());
    pieces.push_back(std::move(more.value()));
  }
  std::string out;
  out.reserve(static_cast<size_t>(have));
  for (const PinnedSlice& piece : pieces) out.append(piece.data(), piece.size());
  // Every byte of the reply was copied once into it.
  if (gathered_bytes != nullptr) *gathered_bytes = have;
  return PinnedSlice::Own(std::move(out));
}

Result<std::string> PartitionLog::Read(int64_t offset,
                                       int64_t max_bytes) const {
  auto pinned = ReadPinned(offset, max_bytes);
  if (!pinned.ok()) return pinned.status();
  return pinned.value().ToString();
}

int PartitionLog::DeleteExpiredSegments() {
  MutexLock lock(&mu_);
  const int64_t now = clock_->NowMillis();
  int deleted = 0;
  while (segments_.size() > 1 &&
         now - segments_.front().last_append_ms > options_.retention_ms) {
    if (fs_ != nullptr) {
      // Readers of a rolled segment read its file without mu_: announce the
      // new head first, so a read the unlink races reports NotFound.
      expired_end_.store(segments_[1].base_offset);
      segments_.front().file.reset();  // close before unlink
      Status removed =
          fs_->RemoveFile(SegmentPath(segments_.front().base_offset));
      if (!removed.ok() &&
          !fs_->TruncateFile(SegmentPath(segments_.front().base_offset), 0)
               .ok()) {
        // Dropping the in-memory segment while its file survives intact
        // would resurrect the expired records on the next restart. Leave it
        // in place; the next retention sweep retries the unlink.
        expired_end_.store(segments_.front().base_offset);
        break;
      }
    }
    segments_.pop_front();
    ++deleted;
  }
  // The active segment may also expire entirely.
  if (segments_.size() == 1 && segments_.front().size() > 0 &&
      now - segments_.front().last_append_ms > options_.retention_ms) {
    Segment& s = segments_.front();
    const int64_t end = s.base_offset + s.size();
    if (fs_ != nullptr) {
      s.file.reset();  // close before unlink
      Status removed = fs_->RemoveFile(SegmentPath(s.base_offset));
      if (!removed.ok() &&
          !fs_->TruncateFile(SegmentPath(s.base_offset), 0).ok()) {
        // Same resurrection hazard as above: keep the segment until the
        // file is actually gone (or at least empty).
        if (deleted > 0) PublishSnapshotLocked();
        return deleted;
      }
    }
    Segment fresh;
    fresh.base_offset = end;
    fresh.last_append_ms = now;
    segments_.front() = std::move(fresh);
    unflushed_messages_ = 0;
    flushed_end_.store(std::max(flushed_end_.load(), end));
    ++deleted;
  }
  if (deleted > 0) PublishSnapshotLocked();
  return deleted;
}

int64_t PartitionLog::retained_bytes() const {
  MutexLock lock(&mu_);
  int64_t bytes = 0;
  for (const Segment& segment : segments_) {
    if (!segment.sealed.empty()) bytes += segment.sealed_bytes;
    bytes += static_cast<int64_t>(segment.tail.size());
  }
  return bytes;
}

int64_t PartitionLog::start_offset() const {
  return LoadSnapshot()->front()->base_offset;
}

int64_t PartitionLog::flushed_end_offset() const {
  return flushed_end_.load();
}

int64_t PartitionLog::durable_end_offset() const {
  return durable_end_.load();
}

Status PartitionLog::recovery_status() const {
  MutexLock lock(&mu_);
  return recovery_status_;
}

int64_t PartitionLog::end_offset() const { return end_offset_.load(); }

int PartitionLog::segment_count() const {
  return static_cast<int>(LoadSnapshot()->size());
}

}  // namespace lidi::kafka
