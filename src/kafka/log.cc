#include "kafka/log.h"

#include <algorithm>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "kafka/message.h"

namespace lidi::kafka {

namespace {

/// Bytes of the clean prefix of a segment file: complete entries whose
/// payload CRC holds. The length prefix alone is not proof of integrity —
/// torn garbage can parse as a plausible length — and the CRC does not cover
/// the attributes byte, so an entry must also decode under the codec that
/// byte names.
int64_t CleanEntries(Slice scan) {
  int64_t good = 0;
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
  return good;
}

}  // namespace

PartitionLog::PartitionLog(LogOptions options, const Clock* clock)
    : options_(std::move(options)),
      clock_(clock),
      log_(options_.data_dir.empty()
               ? nullptr
               : std::make_unique<io::SegmentLog>(
                     io::SegmentLogOptions{
                         options_.data_dir, options_.fs, options_.sync,
                         options_.sync_interval_bytes, options_.group_commit,
                         options_.metrics, "kafka.log"},
                     &mu_, [this](const Status&) { OnGroupSyncLocked(); })) {
  // No concurrent access yet, but the *Locked() helpers require mu_ — and
  // taking it keeps the thread-safety analysis airtight for free.
  MutexLock lock(&mu_);
  if (log_ != nullptr) {
    log_->Recover([this](int64_t base, std::string* bytes) {
      const int64_t good = CleanEntries(*bytes);
      bytes->resize(static_cast<size_t>(good));
      Segment segment;
      segment.base_offset = base;
      segment.sealed_bytes = good;
      segment.last_append_ms = clock_->NowMillis();
      if (good > 0) segment.sealed.push_back(WrapBuffer(std::move(*bytes)));
      segments_.push_back(std::move(segment));
      ReleaseRolledChunksLocked();  // only the newest segment stays in memory
      return good;
    });
  }
  if (segments_.empty()) {
    Segment segment;
    segment.last_append_ms = clock_->NowMillis();
    segments_.push_back(std::move(segment));
  }
  // Everything recovered from disk is flushed and crash-durable.
  const int64_t end =
      segments_.back().base_offset + segments_.back().sealed_bytes;
  flushed_end_.store(end);
  durable_end_.store(end);
  end_offset_.store(end);
  PublishSnapshotLocked();
}

void PartitionLog::PersistSealedLocked() {
  int64_t written = log_->written_end();
  // Segments before the one holding `written` are in their files already.
  size_t first = segments_.size() - 1;
  while (first > 0 && segments_[first].base_offset > written) --first;
  for (size_t i = first; i < segments_.size(); ++i) {
    const Segment& segment = segments_[i];
    int64_t chunk_base = segment.base_offset;
    for (const BufferRef& chunk : segment.sealed) {
      const int64_t chunk_end =
          chunk_base + static_cast<int64_t>(chunk->size());
      if (written < chunk_end) {
        // Chunks seal at entry boundaries and a failed piece is taken back
        // whole, so `written` always sits on one.
        const Slice piece(chunk->data() + (written - chunk_base),
                          static_cast<size_t>(chunk_end - written));
        if (!log_->Write(piece).ok()) return;
        written = chunk_end;
      }
      chunk_base = chunk_end;
    }
  }
  // Under kAlways every unsynced byte's acknowledgement waits on the sync;
  // under kInterval none does, so a failed interval sync takes none back.
  const int64_t waiting_from = options_.sync == io::SyncPolicy::kAlways
                                   ? log_->synced_end()
                                   : log_->written_end();
  // discard-ok: a failed sync leaves durable_end_offset() short of the
  // bytes; AppendDurable reports that to its caller.
  (void)log_->SyncIfDue(waiting_from);
}

void PartitionLog::OnGroupSyncLocked() {
  durable_end_.store(std::max(durable_end_.load(), log_->synced_end()));
  if (ReleaseRolledChunksLocked()) PublishSnapshotLocked();
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

bool PartitionLog::ReleaseRolledChunksLocked() {
  if (log_ == nullptr) return false;  // in-memory mode: the chunks are the log
  const int64_t durable = options_.sync == io::SyncPolicy::kNever
                              ? log_->written_end()
                              : log_->synced_end();
  // Files fill in log order, so segments release in order: the scan back
  // from the active segment stops at the first one already released.
  bool released = false;
  for (size_t i = segments_.size() - 1; i-- > 0;) {
    Segment& segment = segments_[i];
    if (segment.sealed.empty()) break;
    if (segment.tail.empty() &&
        segment.base_offset + segment.sealed_bytes <= durable) {
      segment.sealed.clear();
      released = true;
    }
  }
  return released;
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
    if (log_ != nullptr) log_->Roll(next.base_offset);
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
  if (log_ != nullptr) PersistSealedLocked();
  ReleaseRolledChunksLocked();
  // Publish order matters for the lock-free readers: snapshot first, then
  // the frontier, so a reader that sees the new frontier is guaranteed a
  // snapshot containing every chunk below it.
  PublishSnapshotLocked();
  // The consumer-visible frontier advances only past bytes the fs actually
  // accepted (persistent mode) — a failed write must not expose offsets
  // that vanish on restart. In-memory mode has no fs to disagree with.
  const int64_t visible =
      log_ != nullptr
          ? log_->written_end()
          : segments_.back().base_offset + segments_.back().sealed_bytes;
  flushed_end_.store(std::max(flushed_end_.load(), visible));
  durable_end_.store(std::max(
      durable_end_.load(),
      log_ != nullptr ? log_->synced_end() : flushed_end_.load()));
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
    (void)log_->SyncTo(target, log_->epoch());
  }
}

Result<int64_t> PartitionLog::AppendDurable(Slice message_set,
                                            int message_count) {
  const int64_t set_bytes = static_cast<int64_t>(message_set.size());
  if (!group_mode()) {
    const int64_t offset = Append(message_set, message_count);
    Flush();
    if (log_ == nullptr) return offset;  // in-memory: flushed == durable
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
  // flight. The epoch is captured before staging: a failed group sync rolls
  // the unsynced bytes back, and the next flush rewrites them at the same
  // offsets, so an ack across that rollback must be refused.
  const uint64_t staged_epoch = log_->epoch();
  int64_t offset = 0;
  int64_t entry_end = 0;
  {
    MutexLock lock(&mu_);
    offset = AppendLocked(message_set, message_count);
    entry_end = offset + set_bytes;
    FlushLocked();
    if (log_->written_end() < entry_end) {
      // Failed write: the entry is not in the file, so no sync can cover it
      // this round. Later flushes rewrite it; this append stays unacked.
      return Status::IOError("append not fully accepted by fs");
    }
  }
  Status s = log_->SyncTo(entry_end, staged_epoch);
  if (!s.ok()) return s;
  return offset;
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
  Status s = log_->ReadRange(base_offset, pos, want, &bytes);
  if (!s.ok()) return s;
  int64_t take = WholeEntries(bytes.data(),
                              static_cast<int64_t>(bytes.size()), max_bytes);
  if (take == 0 && bytes.size() >= 4) {
    // The first entry alone outruns the budget: read all of it.
    const int64_t entry = 4 + static_cast<int64_t>(DecodeFixed32(bytes.data()));
    if (entry > available) return NotAnEntry();
    s = log_->ReadRange(base_offset, pos, entry, &bytes);
    if (!s.ok()) return s;
    take = entry;
  }
  if (take == 0) return NotAnEntry();
  bytes.resize(static_cast<size_t>(take));
  *copied += take;
  return PinnedSlice::Own(std::move(bytes));
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
  // Segments expire oldest first; the active one only once it holds bytes.
  size_t expired = 0;
  while (expired < segments_.size() &&
         now - segments_[expired].last_append_ms > options_.retention_ms) {
    ++expired;
  }
  if (expired == segments_.size() && segments_.back().size() == 0) --expired;
  if (expired == 0) return 0;
  const int64_t floor =
      expired < segments_.size()
          ? segments_[expired].base_offset
          : segments_.back().base_offset + segments_.back().size();
  const int deleted = log_ != nullptr ? log_->DeleteBelow(floor)
                                      : static_cast<int>(expired);
  for (int i = 0; i < deleted; ++i) segments_.pop_front();
  if (segments_.empty()) {
    Segment fresh;
    fresh.base_offset = floor;
    fresh.last_append_ms = now;
    segments_.push_back(std::move(fresh));
    unflushed_messages_ = 0;
    flushed_end_.store(std::max(flushed_end_.load(), floor));
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
  return log_ != nullptr ? log_->status() : Status::OK();
}

int64_t PartitionLog::end_offset() const { return end_offset_.load(); }

int PartitionLog::segment_count() const {
  return static_cast<int>(LoadSnapshot()->size());
}

}  // namespace lidi::kafka
