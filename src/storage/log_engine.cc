#include "storage/log_engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "common/sync.h"

#include "common/coding.h"
#include "common/hash.h"

namespace lidi::storage {

namespace {

// Record layout within a segment:
//   fixed32 crc (over the rest of the record)
//   varint  key length, key bytes
//   varint  value length + 1  (0 encodes a tombstone)
//   value bytes
class LogEngineImpl : public LogStructuredEngine {
 public:
  explicit LogEngineImpl(const LogEngineOptions& options)
      : options_(options),
        fs_(options.data_dir.empty()
                ? nullptr
                : (options.fs != nullptr ? options.fs : io::DefaultFs())) {
    if (options_.metrics == nullptr) {
      owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    }
    obs::MetricsRegistry* metrics =
        options_.metrics != nullptr ? options_.metrics : owned_metrics_.get();
    live_keys_ = metrics->GetGauge("storage.live_keys");
    segment_count_ = metrics->GetGauge("storage.segments");
    total_bytes_gauge_ = metrics->GetGauge("storage.total_bytes");
    dead_bytes_gauge_ = metrics->GetGauge("storage.dead_bytes");
    compactions_counter_ = metrics->GetCounter("storage.compactions");
    const obs::Labels io_labels{{"layer", "storage.log_engine"}};
    io_sync_count_ = metrics->GetCounter("io.sync.count", io_labels);
    io_write_failed_ = metrics->GetCounter("io.write.failed", io_labels);
    io_torn_truncations_ =
        metrics->GetCounter("io.recovery.torn_truncations", io_labels);
    // Constructor: no concurrent access yet, but the *Locked() helpers
    // require mu_ held.
    MutexLock lock(&mu_);
    if (fs_ != nullptr) {
      RecoverFromDiskLocked();
    }
    if (segments_.empty()) segments_.emplace_back();
    UpdateGaugesLocked();
  }

  std::string name() const override { return "logstructured"; }

  obs::MetricsRegistry* metrics() const override {
    return options_.metrics != nullptr ? options_.metrics
                                       : owned_metrics_.get();
  }

  Status Get(Slice key, std::string* value) const override {
    MutexLock lock(&mu_);
    auto it = index_.find(key.ToString());
    if (it == index_.end()) return Status::NotFound();
    return ReadRecordLocked(it->second, nullptr, value);
  }

  Status Put(Slice key, Slice value) override {
    MutexLock lock(&mu_);
    Status s = AppendLocked(key, value, /*tombstone=*/false);
    if (s.ok()) MaybeCompactLocked();
    UpdateGaugesLocked();
    return s;
  }

  Status Delete(Slice key) override {
    MutexLock lock(&mu_);
    auto it = index_.find(key.ToString());
    if (it == index_.end()) return Status::OK();
    Status s = AppendLocked(key, Slice(), /*tombstone=*/true);
    if (s.ok()) MaybeCompactLocked();
    UpdateGaugesLocked();
    return s;
  }

  int64_t Count() const override {
    MutexLock lock(&mu_);
    return static_cast<int64_t>(index_.size());
  }

  void ForEach(const std::function<bool(Slice key, Slice value)>& visitor)
      const override {
    // Snapshot the index so the visitor can call back into the engine.
    std::map<std::string, Location> snapshot;
    {
      MutexLock lock(&mu_);
      snapshot = index_;
    }
    for (const auto& [key, loc] : snapshot) {
      std::string value;
      {
        MutexLock lock(&mu_);
        if (!ReadRecordLocked(loc, nullptr, &value).ok()) continue;
      }
      if (!visitor(key, value)) return;
    }
  }

  void CompactNow() override {
    MutexLock lock(&mu_);
    CompactLocked();
    UpdateGaugesLocked();
  }

  Status VerifyChecksums() const override {
    MutexLock lock(&mu_);
    for (const auto& [key, loc] : index_) {
      std::string k, v;
      Status s = ReadRecordLocked(loc, &k, &v);
      if (!s.ok()) return s;
      if (k != key) return Status::Corruption("index points at wrong key");
    }
    return Status::OK();
  }

  Status RecoveryStatus() const override {
    MutexLock lock(&mu_);
    return recovery_status_;
  }

 private:
  struct Location {
    size_t segment;
    size_t offset;
    size_t record_size;
  };

  std::string SegmentPath(size_t index) const {
    char name[32];
    std::snprintf(name, sizeof(name), "%010zu.seg", index);
    return options_.data_dir + "/" + name;
  }

  static std::string EncodeRecord(Slice key, Slice value, bool tombstone) {
    std::string body;
    PutLengthPrefixed(&body, key);
    if (tombstone) {
      PutVarint64(&body, 0);
    } else {
      PutVarint64(&body, value.size() + 1);
      body.append(value.data(), value.size());
    }
    std::string record;
    PutFixed32(&record, Crc32(body));
    record += body;
    return record;
  }

  /// Replays one segment's bytes into the index, stopping at the first
  /// torn or CRC-invalid record. Returns the clean prefix length.
  size_t ReplaySegmentLocked(const std::string& data, size_t segment_index)
      LIDI_REQUIRES(mu_) {
    Slice scan(data);
    size_t offset = 0;
    while (!scan.empty()) {
      Slice record = scan;
      uint32_t crc;
      Slice key, body;
      uint64_t vlen_plus1;
      if (!GetFixed32(&record, &crc)) break;
      body = record;
      if (!GetLengthPrefixed(&record, &key) ||
          !GetVarint64(&record, &vlen_plus1)) {
        break;  // torn tail
      }
      if (vlen_plus1 > 0 && record.size() < vlen_plus1 - 1) break;
      const size_t value_bytes = vlen_plus1 == 0 ? 0 : vlen_plus1 - 1;
      const size_t record_size =
          4 + (record.data() - body.data()) + value_bytes;
      Slice full_body(data.data() + offset + 4, record_size - 4);
      if (Crc32(full_body) != crc) break;  // corruption: stop this segment
      const std::string k = key.ToString();
      auto it = index_.find(k);
      if (vlen_plus1 == 0) {
        if (it != index_.end()) {
          dead_bytes_ += static_cast<int64_t>(it->second.record_size);
          index_.erase(it);
        }
        dead_bytes_ += static_cast<int64_t>(record_size);
      } else {
        const Location loc{segment_index, offset, record_size};
        if (it != index_.end()) {
          dead_bytes_ += static_cast<int64_t>(it->second.record_size);
          it->second = loc;
        } else {
          index_[k] = loc;
        }
      }
      offset += record_size;
      scan = Slice(data.data() + offset, data.size() - offset);
    }
    return offset;
  }

  /// Constructor-time recovery: reads segment files in file-number order
  /// and replays every record through the index, so the last write per key
  /// wins and tombstones erase. Torn trailing records are discarded.
  ///
  /// The in-memory segment index must keep matching the on-disk file names
  /// — segments_[i] is always file "<i>.seg". A missing or unreadable file
  /// therefore becomes an empty placeholder (its records are lost, which
  /// RecoveryStatus reports loudly) rather than being skipped, which would
  /// shift every later segment and make future appends land in the wrong
  /// file.
  void RecoverFromDiskLocked() LIDI_REQUIRES(mu_) {
    Status s = fs_->CreateDirs(options_.data_dir);
    if (!s.ok()) {
      recovery_status_ = s;
      return;
    }
    auto names = fs_->ListDir(options_.data_dir);
    if (!names.ok()) {
      recovery_status_ = names.status();
      return;
    }
    std::vector<std::pair<size_t, std::string>> files;  // (number, name)
    for (const std::string& name : names.value()) {
      if (name.size() == 14 && name.substr(10) == ".seg") {
        files.emplace_back(static_cast<size_t>(std::atoll(name.c_str())),
                           name);
      } else if (name.size() > 4 &&
                 name.compare(name.size() - 4, 4, ".tmp") == 0) {
        // Staged compaction output from a crashed run; never made live.
        // discard-ok: best-effort cleanup; a surviving .tmp is never read
        // and the next compaction removes or overwrites it.
        (void)fs_->RemoveFile(options_.data_dir + "/" + name);
      }
    }
    std::sort(files.begin(), files.end());
    bool last_damaged = false;
    for (const auto& [number, name] : files) {
      last_damaged = false;
      while (segments_.size() < number) {
        // A hole in the numbering: that file's records are gone.
        if (recovery_status_.ok()) {
          recovery_status_ = Status::Corruption(
              "segment file missing: " + SegmentPath(segments_.size()));
        }
        segments_.emplace_back();
        persisted_bytes_.push_back(0);
      }
      const std::string path = options_.data_dir + "/" + name;
      std::string data;
      Status read_status = fs_->ReadFile(path, &data);
      if (!read_status.ok()) {
        if (recovery_status_.ok()) recovery_status_ = read_status;
        segments_.emplace_back();
        persisted_bytes_.push_back(0);
        // The real file still has bytes we could not read; never append to
        // it, or its contents and this placeholder diverge.
        last_damaged = true;
        continue;
      }
      const size_t segment_index = segments_.size();
      const size_t clean = ReplaySegmentLocked(data, segment_index);
      if (clean < data.size()) {
        io_torn_truncations_->Increment();
        data.resize(clean);
        Status truncate_status =
            fs_->TruncateFile(path, static_cast<int64_t>(clean));
        if (!truncate_status.ok()) {
          // Garbage stays on disk past `clean`; quarantine the file.
          if (recovery_status_.ok()) recovery_status_ = truncate_status;
          io_write_failed_->Increment();
          last_damaged = true;
        }
      }
      segments_.push_back(std::move(data));
      persisted_bytes_.push_back(static_cast<int64_t>(clean));
    }
    if (last_damaged) {
      // Quarantine the damaged tail file: appends move to a fresh segment.
      segments_.emplace_back();
      persisted_bytes_.push_back(0);
    }
  }

  /// Persists one record to the segment's file, applying the sync policy.
  /// All-or-nothing toward the caller: on any failure the file is rolled
  /// back to its pre-write length (or, if even that fails, *quarantine is
  /// set and the caller must stop appending to this segment), so on-disk
  /// bytes never diverge from the in-memory segment copy.
  Status PersistAppendLocked(size_t segment_index, const std::string& record,
                             bool* quarantine) LIDI_REQUIRES(mu_) {
    *quarantine = false;
    if (fs_ == nullptr) return Status::OK();
    while (persisted_bytes_.size() <= segment_index) {
      persisted_bytes_.push_back(0);
    }
    if (active_file_ == nullptr || active_file_index_ != segment_index) {
      active_file_.reset();
      auto file = fs_->OpenAppend(SegmentPath(segment_index));
      if (!file.ok()) {
        io_write_failed_->Increment();
        return file.status();
      }
      active_file_ = std::move(file.value());
      active_file_index_ = segment_index;
    }
    int64_t accepted = 0;
    Status s = active_file_->Append(record, &accepted);
    const bool appended = s.ok();
    if (appended) {
      unsynced_bytes_ += static_cast<int64_t>(record.size());
      const bool sync_due =
          options_.sync == io::SyncPolicy::kAlways ||
          (options_.sync == io::SyncPolicy::kInterval &&
           unsynced_bytes_ >= options_.sync_interval_bytes);
      if (sync_due) {
        // sync-choke-point: the engine's inline policy fdatasync.
        s = active_file_->Sync();
        if (s.ok()) {
          io_sync_count_->Increment();
          unsynced_bytes_ = 0;
        }
      }
    }
    if (!s.ok()) {
      io_write_failed_->Increment();
      // The write (or the sync acknowledging it) failed: the caller will
      // not apply the record in memory, so take it back off the disk too.
      active_file_.reset();
      // Take back only what this call counted: a failed Append counted
      // nothing, a failed sync counted the whole record.
      if (appended) unsynced_bytes_ -= static_cast<int64_t>(record.size());
      Status t = fs_->TruncateFile(SegmentPath(segment_index),
                                   persisted_bytes_[segment_index]);
      if (!t.ok()) {
        // Unacked bytes are stuck in the file; recovery CRC-scans will
        // handle them, but no further append may bury them.
        persisted_bytes_[segment_index] += accepted;
        *quarantine = true;
      }
      return s;
    }
    persisted_bytes_[segment_index] += static_cast<int64_t>(record.size());
    return Status::OK();
  }

  /// Appends the record durably first (per the sync policy), then applies
  /// it to the in-memory segment and index — so an error return means the
  /// engine state is exactly as if the call never happened.
  Status AppendLocked(Slice key, Slice value, bool tombstone)
      LIDI_REQUIRES(mu_) {
    const std::string record = EncodeRecord(key, value, tombstone);
    if (static_cast<int64_t>(segments_.back().size()) >=
        options_.segment_size_bytes) {
      segments_.emplace_back();
      active_file_.reset();
    }
    const size_t segment_index = segments_.size() - 1;
    bool quarantine = false;
    Status s = PersistAppendLocked(segment_index, record, &quarantine);
    if (!s.ok()) {
      if (quarantine) {
        segments_.emplace_back();
        active_file_.reset();
      }
      return s;
    }

    std::string& seg = segments_[segment_index];
    const Location loc{segment_index, seg.size(), record.size()};
    seg += record;

    const std::string k = key.ToString();
    auto it = index_.find(k);
    if (it != index_.end()) {
      dead_bytes_ += static_cast<int64_t>(it->second.record_size);
      if (tombstone) {
        dead_bytes_ += static_cast<int64_t>(loc.record_size);
        index_.erase(it);
      } else {
        it->second = loc;
      }
    } else if (tombstone) {
      dead_bytes_ += static_cast<int64_t>(loc.record_size);
    } else {
      index_[k] = loc;
    }
    return Status::OK();
  }

  Status ReadRecordLocked(const Location& loc, std::string* key,
                          std::string* value) const LIDI_REQUIRES(mu_) {
    const std::string& seg = segments_[loc.segment];
    if (loc.offset + loc.record_size > seg.size()) {
      return Status::Corruption("record out of segment bounds");
    }
    Slice record(seg.data() + loc.offset, loc.record_size);
    uint32_t stored_crc;
    if (!GetFixed32(&record, &stored_crc)) {
      return Status::Corruption("truncated record header");
    }
    if (Crc32(record) != stored_crc) {
      return Status::Corruption("record checksum mismatch");
    }
    Slice k, body = record;
    if (!GetLengthPrefixed(&body, &k)) {
      return Status::Corruption("truncated key");
    }
    uint64_t vlen_plus1;
    if (!GetVarint64(&body, &vlen_plus1)) {
      return Status::Corruption("truncated value length");
    }
    if (vlen_plus1 == 0) return Status::NotFound("tombstone");
    if (body.size() < vlen_plus1 - 1) {
      return Status::Corruption("truncated value");
    }
    if (key != nullptr) *key = k.ToString();
    if (value != nullptr) value->assign(body.data(), vlen_plus1 - 1);
    return Status::OK();
  }

  /// Mirrors the engine's state into its registry gauges (counters for
  /// monotone events are incremented at the event site). Called after every
  /// mutation, so Snapshot() always shows the engine's current state.
  void UpdateGaugesLocked() LIDI_REQUIRES(mu_) {
    live_keys_->Set(static_cast<int64_t>(index_.size()));
    segment_count_->Set(static_cast<int64_t>(segments_.size()));
    int64_t total = 0;
    for (const auto& seg : segments_) total += static_cast<int64_t>(seg.size());
    total_bytes_gauge_->Set(total);
    dead_bytes_gauge_->Set(dead_bytes_);
  }

  void MaybeCompactLocked() LIDI_REQUIRES(mu_) {
    int64_t total = 0;
    for (const auto& seg : segments_) total += static_cast<int64_t>(seg.size());
    if (total > options_.segment_size_bytes &&
        static_cast<double>(dead_bytes_) >
            options_.compaction_garbage_ratio * static_cast<double>(total)) {
      CompactLocked();
    }
  }

  /// Compaction rewrites live records into fresh segments. Persistent mode
  /// stages the new segments as "<n>.seg.tmp" files (synced), then
  /// atomically renames them over the live files and fsyncs the directory —
  /// a crash mid-compaction leaves the old, complete generation in place
  /// (recovery deletes stray .tmp files). On a staging failure the
  /// compaction is abandoned and the engine keeps its current state.
  void CompactLocked() LIDI_REQUIRES(mu_) {
    // Rebuild in memory first; no I/O can fail here.
    std::vector<std::string> new_segments(1);
    std::map<std::string, Location> new_index;
    for (const auto& [key, loc] : index_) {
      const std::string& seg = segments_[loc.segment];
      Slice record(seg.data() + loc.offset, loc.record_size);
      uint32_t crc;
      GetFixed32(&record, &crc);
      Slice k;
      GetLengthPrefixed(&record, &k);
      uint64_t vlen_plus1;
      GetVarint64(&record, &vlen_plus1);
      const Slice value(record.data(), vlen_plus1 - 1);
      const std::string rec = EncodeRecord(key, value, /*tombstone=*/false);
      if (static_cast<int64_t>(new_segments.back().size()) >=
          options_.segment_size_bytes) {
        new_segments.emplace_back();
      }
      new_index[key] = Location{new_segments.size() - 1,
                                new_segments.back().size(), rec.size()};
      new_segments.back() += rec;
    }

    std::vector<int64_t> new_persisted;
    if (fs_ != nullptr) {
      active_file_.reset();
      const size_t old_files = persisted_bytes_.size();
      // Stage.
      for (size_t i = 0; i < new_segments.size(); ++i) {
        const std::string tmp = SegmentPath(i) + ".tmp";
        // A stale .tmp from a crashed run must not survive into this
        // generation: OpenAppend below is O_APPEND without O_TRUNC, so
        // leftover bytes would become a garbage prefix of the staged
        // segment — which then gets synced and renamed live. If neither
        // remove nor truncate can clear it, abandon the compaction.
        if (fs_->FileExists(tmp) && !fs_->RemoveFile(tmp).ok()) {
          if (!fs_->TruncateFile(tmp, 0).ok()) {
            io_write_failed_->Increment();
            return;
          }
        }
        auto file = fs_->OpenAppend(tmp);
        Status s = file.ok() ? file.value()->Append(new_segments[i], nullptr)
                             : file.status();
        // sync-choke-point: compaction staging files are synced before the
        // generation pointer flips to them.
        if (s.ok()) s = file.value()->Sync();
        if (file.ok()) {
          // A failed close after a clean sync still abandons the staging
          // run: the handle's state is unknown and the flip must not trust
          // it.
          Status close_status = file.value()->Close();
          if (s.ok()) s = close_status;
        }
        if (!s.ok()) {
          // Abandon: remove staged files, keep the current generation.
          io_write_failed_->Increment();
          for (size_t j = 0; j <= i; ++j) {
            // discard-ok: best-effort cleanup of abandoned staging files; a
            // leftover .tmp is removed by the next recovery or compaction.
            (void)fs_->RemoveFile(SegmentPath(j) + ".tmp");
          }
          return;
        }
        io_sync_count_->Increment();
      }
      // Swap: atomic per file; then drop the old generation's surplus.
      for (size_t i = 0; i < new_segments.size(); ++i) {
        Status s = fs_->RenameFile(SegmentPath(i) + ".tmp", SegmentPath(i));
        if (!s.ok()) {
          io_write_failed_->Increment();
          if (recovery_status_.ok()) recovery_status_ = s;
        }
      }
      for (size_t i = new_segments.size(); i < old_files; ++i) {
        Status s = fs_->RemoveFile(SegmentPath(i));
        if (!s.ok()) {
          // A surviving surplus segment is not just litter: recovery reads
          // every N.seg in order, so the old generation's records — deleted
          // keys included — would be resurrected on the next restart.
          // Truncating the stale file to empty is the cheap way to defuse
          // it; only if that also fails is the engine marked degraded.
          Status truncated = fs_->TruncateFile(SegmentPath(i), 0);
          if (!truncated.ok()) {
            io_write_failed_->Increment();
            if (recovery_status_.ok()) recovery_status_ = truncated;
          }
        }
      }
      Status dir_sync = fs_->SyncDir(options_.data_dir);
      if (!dir_sync.ok()) {
        // The renames may not survive power loss: the directory could come
        // back with any mix of old and new generation files. Surface it —
        // claiming the compaction durable here would be a silent lie.
        io_write_failed_->Increment();
        if (recovery_status_.ok()) recovery_status_ = dir_sync;
      }
      for (const auto& seg : new_segments) {
        new_persisted.push_back(static_cast<int64_t>(seg.size()));
      }
      unsynced_bytes_ = 0;
    }

    segments_ = std::move(new_segments);
    index_ = std::move(new_index);
    persisted_bytes_ = std::move(new_persisted);
    dead_bytes_ = 0;
    compactions_counter_->Increment();
  }

  const LogEngineOptions options_;
  io::Fs* const fs_;  // null = in-memory only
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Gauge* live_keys_ = nullptr;
  obs::Gauge* segment_count_ = nullptr;
  obs::Gauge* total_bytes_gauge_ = nullptr;
  obs::Gauge* dead_bytes_gauge_ = nullptr;
  obs::Counter* compactions_counter_ = nullptr;
  obs::Counter* io_sync_count_ = nullptr;
  obs::Counter* io_write_failed_ = nullptr;
  obs::Counter* io_torn_truncations_ = nullptr;
  mutable Mutex mu_{"storage.log_engine.writer", lockrank::kLogEngineWriter};
  std::vector<std::string> segments_ LIDI_GUARDED_BY(mu_);
  std::vector<int64_t> persisted_bytes_
      LIDI_GUARDED_BY(mu_);  // per segment (persistent mode)
  std::map<std::string, Location> index_ LIDI_GUARDED_BY(mu_);
  int64_t dead_bytes_ LIDI_GUARDED_BY(mu_) = 0;
  Status recovery_status_ LIDI_GUARDED_BY(mu_);
  /// Cached append handle for the active segment's file.
  std::unique_ptr<io::WritableFile> active_file_ LIDI_GUARDED_BY(mu_);
  size_t active_file_index_ LIDI_GUARDED_BY(mu_) = 0;
  int64_t unsynced_bytes_ LIDI_GUARDED_BY(mu_) = 0;
};

}  // namespace

std::unique_ptr<LogStructuredEngine> NewLogStructuredEngine(
    const LogEngineOptions& options) {
  return std::make_unique<LogEngineImpl>(options);
}

std::unique_ptr<StorageEngine> NewLogStructuredEngine() {
  return NewLogStructuredEngine(LogEngineOptions{});
}

}  // namespace lidi::storage
