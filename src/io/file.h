#ifndef LIDI_IO_FILE_H_
#define LIDI_IO_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace lidi::io {

/// When a persistence layer pushes accepted bytes down to stable storage.
/// The knob every durability/throughput trade-off in the repo hangs off:
/// Kafka's flush policy (paper V.B), Espresso's commit log (IV), and the
/// engine behind Voldemort RW stores all expose it.
enum class SyncPolicy {
  kNever = 0,     // rely on the OS page cache; a crash loses unsynced bytes
  kInterval = 1,  // fdatasync every sync_interval_bytes accepted bytes
  kAlways = 2,    // fdatasync before acknowledging every flush/append
};

/// "never" | "interval" | "always" — bench/report labels.
const char* SyncPolicyName(SyncPolicy policy);

/// An append-only file handle with full error propagation. Unlike
/// std::ofstream, every call reports failure, and a failed Append says how
/// many bytes the filesystem actually took — the counter persistence layers
/// must not advance past.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends data. When `accepted` is non-null it receives the number of
  /// bytes the filesystem took, even on failure (short write, ENOSPC):
  /// exactly the prefix of `data` now present at the end of the file.
  virtual Status Append(Slice data, int64_t* accepted = nullptr) = 0;

  /// Pushes accepted bytes to stable storage (fdatasync). Only bytes
  /// covered by a successful Sync are promised to survive a crash.
  virtual Status Sync() = 0;

  /// Closes the handle. Idempotent; the destructor closes too (ignoring
  /// errors — call Close when the result matters).
  virtual Status Close() = 0;
};

/// Filesystem abstraction the persistence layers write through. Two real
/// implementations: the fd-based PosixFs (production) and MemFs (tests);
/// FaultFs (fault_fs.h) decorates either with deterministic fault injection.
class Fs {
 public:
  virtual ~Fs() = default;

  /// Opens (creating if absent) `path` for appending.
  virtual Result<std::unique_ptr<WritableFile>> OpenAppend(
      const std::string& path) = 0;

  /// Reads the whole file into *out.
  virtual Status ReadFile(const std::string& path, std::string* out) = 0;

  /// Reads up to `size` bytes of the file starting at byte `offset` into
  /// *out, replacing its contents. Fewer bytes, or none, come back only
  /// where the file ends first; a missing file is an error. This default
  /// reads the whole file and slices it; the filesystems here override it
  /// with a read of just the range.
  virtual Status ReadRange(const std::string& path, int64_t offset,
                           int64_t size, std::string* out);

  /// Names (not paths) of the entries directly inside `path`, sorted.
  virtual Result<std::vector<std::string>> ListDir(const std::string& path) = 0;

  virtual Status CreateDirs(const std::string& path) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;

  /// Shrinks (or grows, zero-filled) the file to `size` bytes. Recovery uses
  /// this to drop torn tails; the error code matters — a failed truncate
  /// leaves garbage a later append would bury.
  virtual Status TruncateFile(const std::string& path, int64_t size) = 0;

  /// Atomic replace (POSIX rename semantics): after a crash either the old
  /// or the new file is visible, never a mix.
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;

  /// fsyncs the directory itself, making entry creates/renames/removes
  /// durable (the step naive persistence layers forget).
  virtual Status SyncDir(const std::string& path) = 0;

  virtual Result<int64_t> FileSize(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
};

/// The process-wide fd-based POSIX filesystem (open/write/fdatasync/rename).
/// Never null; safe to share across threads.
Fs* DefaultFs();

/// A fresh in-memory filesystem (tests, FaultFs substrate): same contract as
/// PosixFs, no disk I/O, Sync is a recorded no-op.
std::unique_ptr<Fs> NewMemFs();

}  // namespace lidi::io

#endif  // LIDI_IO_FILE_H_
