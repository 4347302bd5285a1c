#include "io/segment_log.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace lidi::io {

namespace {
inline void Inc(obs::Counter* counter) {
  if (counter != nullptr) counter->Increment();
}
}  // namespace

SegmentLog::SegmentLog(SegmentLogOptions options, Mutex* owner_mu,
                       SyncedFn on_group_sync)
    : options_(std::move(options)),
      fs_(options_.fs != nullptr ? options_.fs : DefaultFs()),
      owner_mu_(owner_mu),
      on_group_sync_(std::move(on_group_sync)) {
  if (options_.metrics != nullptr) {
    const obs::Labels labels{{"layer", options_.layer}};
    sync_count_ = options_.metrics->GetCounter("io.sync.count", labels);
    write_failed_ = options_.metrics->GetCounter("io.write.failed", labels);
    torn_truncations_ =
        options_.metrics->GetCounter("io.recovery.torn_truncations", labels);
  }
  if (options_.sync == SyncPolicy::kAlways && options_.group_commit) {
    GroupCommitOptions group_options;
    group_options.metrics = options_.metrics;
    group_options.layer = options_.layer;
    group_ = std::make_unique<GroupCommitter>([this] { return GroupSyncNow(); },
                                              group_options);
  }
}

std::string SegmentLog::SegmentPath(int64_t base_offset) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%020lld.log",
                static_cast<long long>(base_offset));
  return options_.dir + "/" + name;
}

void SegmentLog::Recover(const ScanFn& scan) {
  Fail(fs_->CreateDirs(options_.dir));
  std::vector<int64_t> bases;
  auto names = fs_->ListDir(options_.dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      if (name.size() == 24 && name.substr(20) == ".log") {
        bases.push_back(std::atoll(name.c_str()));
      }
    }
  } else {
    Fail(names.status());
  }
  std::sort(bases.begin(), bases.end());
  size_t first_aside = bases.size();  // the files recovery sets aside
  for (size_t i = 0; i < bases.size(); ++i) {
    const int64_t base = bases[i];
    if (!segments_.empty() && base != written_end_) {
      // The offset space stays dense: this file does not start where the
      // recovered log ends, because a torn or missing file lies between.
      // Serving it would leave a hole every reader stalls at, and the next
      // write would land past the hole. Stop here, as Kafka's own recovery
      // does; a power loss cuts only unsynced bytes, so nothing below the
      // synced frontier is dropped.
      Inc(torn_truncations_);
      first_aside = i;
      break;
    }
    const std::string path = SegmentPath(base);
    std::string data;
    Status read = fs_->ReadFile(path, &data);
    if (!read.ok()) {
      // Bytes recovery cannot see: serve what came before, write nothing.
      Fail(read);
      break;
    }
    if (data.empty() && segments_.empty() && i + 1 < bases.size()) continue;
    const int64_t size = static_cast<int64_t>(data.size());
    const int64_t good = std::clamp<int64_t>(scan(base, &data), 0, size);
    segments_.push_back(Segment{base, nullptr});
    written_end_ = synced_end_ = base + good;  // on disk across the restart
    if (good < size) {
      // Drop the torn bytes from the file too, so later writes continue
      // from the clean prefix rather than after garbage.
      Inc(torn_truncations_);
      Status truncated = fs_->TruncateFile(path, good);
      if (!truncated.ok()) {
        Inc(write_failed_);
        Fail(truncated);
      }
    }
  }
  for (size_t j = first_aside; j < bases.size(); ++j) {
    const std::string path = SegmentPath(bases[j]);
    // Failing the rename, the stale file keeps its live name: once the log
    // grows back to its base offset, OpenAppend (no truncate) would write
    // after the stale bytes. Emptying the file defuses that.
    Status renamed = fs_->RenameFile(path, path + ".orphan");
    if (!renamed.ok() && !fs_->TruncateFile(path, 0).ok()) Fail(renamed);
  }
  if (segments_.empty()) segments_.push_back(Segment{});
}

size_t SegmentLog::SegmentAt(int64_t offset) const {
  size_t i = segments_.size() - 1;
  while (i > 0 && segments_[i].base_offset > offset) --i;
  return i;
}

Status SegmentLog::Write(Slice data) {
  if (!status_.ok()) {
    return Status::IOError("log refuses writes: " + status_.ToString());
  }
  Segment& segment = segments_[SegmentAt(written_end_)];
  if (segment.file == nullptr) {
    auto file = fs_->OpenAppend(SegmentPath(segment.base_offset));
    if (!file.ok()) {
      Inc(write_failed_);
      return file.status();
    }
    segment.file = std::move(file.value());
  }
  const int64_t size = static_cast<int64_t>(data.size());
  int64_t accepted = 0;
  Status s = segment.file->Append(data, &accepted);
  if (s.ok() && accepted < size) s = Status::IOError("short write");
  if (!s.ok()) {
    Inc(write_failed_);
    if (accepted > 0) {
      Fail(fs_->TruncateFile(SegmentPath(segment.base_offset),
                             written_end_ - segment.base_offset));
    }
    return s;
  }
  written_end_ += size;
  return Status::OK();
}

Status SegmentLog::SyncIfDue(int64_t waiting_from) {
  const int64_t unsynced = written_end_ - synced_end_;
  const bool due = group_ == nullptr && unsynced > 0 &&
                   (options_.sync == SyncPolicy::kAlways ||
                    (options_.sync == SyncPolicy::kInterval &&
                     unsynced >= options_.sync_interval_bytes));
  if (!due) return Status::OK();
  Status s = SyncThrough(written_end_, nullptr);
  if (!s.ok()) RollBackTo(std::max(waiting_from, synced_end_));
  return s;
}

Status SegmentLog::SyncThrough(int64_t end, MutexLock* lock) {
  while (synced_end_ < end) {
    const size_t i = SegmentAt(synced_end_);
    const int64_t target =
        i + 1 < segments_.size()
            ? std::min(end, segments_[i + 1].base_offset)
            : end;
    std::shared_ptr<WritableFile> file = segments_[i].file;
    if (lock != nullptr) lock->Unlock();
    const Status s = file->Sync();
    if (lock != nullptr) lock->Lock();
    if (!s.ok()) {
      Inc(write_failed_);
      return s;
    }
    Inc(sync_count_);
    synced_end_ = std::max(synced_end_, target);
  }
  return Status::OK();
}

void SegmentLog::RollBackTo(int64_t to) {
  for (size_t i = segments_.size(); i-- > 0;) {
    const int64_t base = segments_[i].base_offset;
    if (base >= written_end_) continue;  // holds no written byte
    Fail(fs_->TruncateFile(SegmentPath(base), std::max<int64_t>(0, to - base)));
    if (base <= to) break;
  }
  written_end_ = to;
}

Result<int64_t> SegmentLog::GroupSyncNow() {
  MutexLock lock(owner_mu_);
  // Sync what is written now; bytes staged during the sync wait for the
  // next leader.
  Status s = SyncThrough(written_end_, &lock);
  // Every unsynced byte belongs to an append parked on this sync.
  if (!s.ok()) RollBackTo(synced_end_);
  on_group_sync_(s);
  if (!s.ok()) return s;
  return synced_end_;
}

void SegmentLog::Roll(int64_t base_offset) {
  segments_.push_back(Segment{base_offset, nullptr});
}

int SegmentLog::DeleteBelow(int64_t floor) {
  int deleted = 0;
  while (!segments_.empty()) {
    Segment& oldest = segments_.front();
    const int64_t end =
        segments_.size() > 1 ? segments_[1].base_offset : floor;
    if (end > floor || oldest.base_offset >= floor) break;
    // Readers of a rolled segment read its file without the owner's lock:
    // announce the new head first, so a read the unlink races reports
    // NotFound.
    expired_end_.store(end);
    oldest.file.reset();  // close before unlink
    const std::string path = SegmentPath(oldest.base_offset);
    if (!fs_->RemoveFile(path).ok() && !fs_->TruncateFile(path, 0).ok()) {
      // Dropping the segment while its file survives intact would resurrect
      // the expired records on the next restart. Keep it; the next sweep
      // retries the unlink.
      expired_end_.store(oldest.base_offset);
      break;
    }
    segments_.pop_front();
    ++deleted;
  }
  if (segments_.empty()) segments_.push_back(Segment{floor, nullptr});
  written_end_ = std::max(written_end_, segments_.front().base_offset);
  synced_end_ = std::max(synced_end_, segments_.front().base_offset);
  return deleted;
}

Status SegmentLog::ReadRange(int64_t base_offset, int64_t pos, int64_t size,
                             std::string* out) const {
  const std::string path = SegmentPath(base_offset);
  Status s = fs_->ReadRange(path, pos, size, out);
  if (s.ok() && static_cast<int64_t>(out->size()) < size) {
    s = Status::Corruption(path + " ends before the " +
                           std::to_string(pos + size) +
                           " bytes the log wrote into it");
  }
  // A file DeleteBelow unlinked (or emptied) under this read means the
  // offset expired. Anything else stays an error: a reader takes NotFound
  // as "restart from the head" and would skip data.
  if (!s.ok() && base_offset + pos < expired_end_.load()) {
    return Status::NotFound("offset " + std::to_string(base_offset + pos) +
                            " expired during the read");
  }
  return s;
}

}  // namespace lidi::io
