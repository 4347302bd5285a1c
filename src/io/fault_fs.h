#ifndef LIDI_IO_FAULT_FS_H_
#define LIDI_IO_FAULT_FS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/sync.h"
#include "common/random.h"
#include "io/file.h"

namespace lidi::io {

/// Deterministic fault schedule for FaultFs. Everything is driven by `seed`,
/// so a failing schedule replays exactly (tests surface the seed and accept
/// the LIDI_FAULTFS_SEED env knob).
struct FaultFsOptions {
  uint64_t seed = 1;
  /// Probability an Append is rejected outright (ENOSPC-style: zero bytes
  /// accepted, IOError returned).
  double write_error_probability = 0.0;
  /// Probability an Append accepts only a seeded strict prefix of the data
  /// before failing (the torn-write case std::ofstream hides).
  double short_write_probability = 0.0;
  /// Probability a Sync fails (bytes stay in the "page cache": accepted but
  /// not durable).
  double sync_error_probability = 0.0;
  /// Crash point: once this many bytes (across all files) have been
  /// accepted, the write that crosses the line is torn mid-byte-stream and
  /// every subsequent operation fails until Restart(). -1 = never.
  int64_t crash_after_bytes = -1;
  /// On Restart, probability that the surviving unsynced tail of a file is
  /// additionally scribbled with seeded garbage (a torn sector), instead of
  /// being cleanly cut at a write boundary.
  double torn_garbage_probability = 0.5;
  /// TEST-ONLY: TruncateFile reports OK and leaves the file as it is. A log
  /// that takes a failed write back by truncating then buries the torn bytes
  /// under its later appends, and recovery stops before them: the footprint
  /// of the historical binlog persisted-bytes bug, which the simulation
  /// harness must re-find (DESIGN.md §9). Never set outside tests.
  bool truncate_keeps_bytes = false;
};

/// Fault-injecting Fs decorator: the repo's standing crash-correctness
/// harness. It owns the durability model — Sync marks accepted bytes
/// durable in its own bookkeeping (the base Fs is just the byte store), and
/// Restart() simulates the machine dying: every file keeps its durable
/// prefix plus a seeded amount of its unsynced tail, possibly garbage-torn.
/// A persistence layer is crash-correct iff, for every schedule, everything
/// it acknowledged as durable is intact after Restart() + reopen.
///
/// Thread-safe (one mutex; this is a test harness, not a hot path).
class FaultFs : public Fs {
 public:
  FaultFs(Fs* base, FaultFsOptions options);

  Result<std::unique_ptr<WritableFile>> OpenAppend(
      const std::string& path) override;
  Status ReadFile(const std::string& path, std::string* out) override;
  Status ReadRange(const std::string& path, int64_t offset, int64_t size,
                   std::string* out) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  Status CreateDirs(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status TruncateFile(const std::string& path, int64_t size) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status SyncDir(const std::string& path) override;
  Result<int64_t> FileSize(const std::string& path) override;
  bool FileExists(const std::string& path) override;

  /// True once a crash point has fired (or CrashNow was called): every
  /// operation fails with IOError("crashed (injected)") until Restart.
  bool crashed() const;
  void CrashNow();

  /// Simulates power loss + reboot: unsynced bytes of every tracked file
  /// are cut back to a seeded survivor prefix (possibly garbage-torn), the
  /// crashed flag clears, and everything now on "disk" counts as durable.
  /// The consumed crash point is disarmed.
  Status Restart();

  /// Total injected Append/Sync failures so far (tests assert schedules
  /// actually bit).
  int64_t injected_failures() const;
  /// Total bytes accepted across all files (to aim crash points).
  int64_t total_bytes_written() const;

  // --- runtime schedule knobs (the sim harness flips these per event) ---

  /// Replaces the write/short-write/sync fault probabilities mid-run. The
  /// seeded RNG stream is untouched, so a schedule that toggles bursts at
  /// the same points replays identically.
  void SetFaultProbabilities(double write_error, double short_write,
                             double sync_error);

  /// Arms (or re-arms) a crash point `more_bytes` accepted bytes from now.
  /// Negative disarms.
  void ArmCrashAfterBytes(int64_t more_bytes);

 private:
  friend class FaultWritableFile;

  struct FileState {
    int64_t durable = 0;  // covered by a successful Sync (or pre-existing)
    int64_t written = 0;  // accepted by Append (durable + page cache)
  };

  /// Appends on behalf of a FaultWritableFile, applying the schedule.
  Status AppendWithFaults(const std::string& path, Slice data,
                          int64_t* accepted);
  Status SyncWithFaults(const std::string& path);
  FileState* Track(const std::string& path) LIDI_REQUIRES(mu_);

  Fs* const base_;
  FaultFsOptions options_ LIDI_GUARDED_BY(mu_);
  /// Held across base-fs calls (the base fs has its own leaf lock and
  /// never calls back) so a fault verdict and its bookkeeping are atomic.
  mutable Mutex mu_{"io.fault_fs"};
  Random rng_ LIDI_GUARDED_BY(mu_);
  bool crashed_ LIDI_GUARDED_BY(mu_) = false;
  int64_t total_written_ LIDI_GUARDED_BY(mu_) = 0;
  int64_t injected_failures_ LIDI_GUARDED_BY(mu_) = 0;
  std::map<std::string, FileState> files_ LIDI_GUARDED_BY(mu_);
};

}  // namespace lidi::io

#endif  // LIDI_IO_FAULT_FS_H_
