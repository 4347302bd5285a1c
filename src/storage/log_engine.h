#ifndef LIDI_STORAGE_LOG_ENGINE_H_
#define LIDI_STORAGE_LOG_ENGINE_H_

#include <memory>
#include <string>

#include "io/file.h"
#include "obs/metrics.h"
#include "storage/engine.h"

namespace lidi::storage {

/// Tuning knobs for the log-structured engine.
struct LogEngineOptions {
  /// A segment is sealed once it reaches this many bytes.
  int64_t segment_size_bytes = 1 << 20;
  /// Compaction runs when dead bytes exceed this fraction of total bytes.
  double compaction_garbage_ratio = 0.5;
  /// When non-empty, every segment is persisted as a file under this
  /// directory ("<seq>.seg"); a new engine instance recovers by scanning the
  /// segments in order and rebuilding the in-memory key index (the Bitcask
  /// recovery model, mirroring how BDB-JE replays its log). Empty =
  /// in-memory only.
  std::string data_dir;
  /// Filesystem the persistent mode writes through; null = the process-wide
  /// fd-based POSIX fs. Tests inject io::MemFs / io::FaultFs here.
  io::Fs* fs = nullptr;
  /// When accepted record bytes are pushed to stable storage (fdatasync).
  /// kAlways means a Put/Delete returning OK is crash-durable; kNever rides
  /// the page cache (the BDB-JE default the paper's RW stores tuned).
  io::SyncPolicy sync = io::SyncPolicy::kNever;
  int64_t sync_interval_bytes = 1 << 20;
  /// Registry the engine's instruments ("storage.live_keys" et al.) land in;
  /// null = engine-private registry. When several engines share a registry,
  /// set distinct `metrics_scope`s — it becomes the "store" label.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_scope;
};

class LogStructuredEngine;

std::unique_ptr<LogStructuredEngine> NewLogStructuredEngine(
    const LogEngineOptions& options);

/// Bitcask-style log-structured KV engine standing in for BerkeleyDB JE in
/// the Voldemort read-write path (see DESIGN.md substitution table).
///
/// Writes append a checksummed record to the active segment and update the
/// in-memory index (key -> segment/offset). Reads are a single index probe
/// plus a record decode. Overwrites and deletes leave dead bytes behind;
/// compaction rewrites live records into fresh segments once the garbage
/// ratio passes the configured threshold.
class LogStructuredEngine : public StorageEngine {
 public:
  ~LogStructuredEngine() override = default;

  /// The registry the engine's instruments live in (injected or
  /// engine-owned): gauges "storage.live_keys", "storage.segments",
  /// "storage.total_bytes", "storage.dead_bytes" and the counter
  /// "storage.compactions", labelled {store=<metrics_scope>} when set.
  virtual obs::MetricsRegistry* metrics() const = 0;

  /// Forces a compaction regardless of the garbage ratio (for tests).
  virtual void CompactNow() = 0;

  /// Verifies every live record's checksum; Corruption on mismatch.
  virtual Status VerifyChecksums() const = 0;

  /// Non-OK when constructor-time recovery hit a problem it refuses to
  /// paper over: an unreadable or missing segment file (a placeholder keeps
  /// the segment-index <-> file-name mapping intact, but the records in
  /// that file are lost) or a torn-tail truncation that failed.
  virtual Status RecoveryStatus() const { return Status::OK(); }
};

}  // namespace lidi::storage

#endif  // LIDI_STORAGE_LOG_ENGINE_H_
