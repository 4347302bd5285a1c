#include "io/fault_fs.h"

#include <algorithm>

namespace lidi::io {

namespace {

Status CrashedError() { return Status::IOError("crashed (injected)"); }

}  // namespace

// Named (not anonymous-namespace) so the friend declaration in FaultFs
// resolves to this type.
class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultFs* fs, std::string path,
                    std::unique_ptr<WritableFile> base)
      : fs_(fs), path_(std::move(path)), base_(std::move(base)) {}

  Status Append(Slice data, int64_t* accepted) override {
    return fs_->AppendWithFaults(path_, data, accepted);
  }
  Status Sync() override { return fs_->SyncWithFaults(path_); }
  Status Close() override { return base_->Close(); }

 private:
  FaultFs* const fs_;
  const std::string path_;
  std::unique_ptr<WritableFile> base_;
};

FaultFs::FaultFs(Fs* base, FaultFsOptions options)
    : base_(base), options_(options), rng_(options.seed) {}

FaultFs::FileState* FaultFs::Track(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    FileState state;
    auto size = base_->FileSize(path);
    // Pre-existing bytes were there before this "boot": fully durable.
    if (size.ok()) state.durable = state.written = size.value();
    it = files_.emplace(path, state).first;
  }
  return &it->second;
}

Result<std::unique_ptr<WritableFile>> FaultFs::OpenAppend(
    const std::string& path) {
  MutexLock lock(&mu_);
  if (crashed_) return CrashedError();
  auto base = base_->OpenAppend(path);
  if (!base.ok()) return base.status();
  Track(path);
  return std::unique_ptr<WritableFile>(std::make_unique<FaultWritableFile>(
      this, path, std::move(base.value())));
}

Status FaultFs::AppendWithFaults(const std::string& path, Slice data,
                                 int64_t* accepted) {
  if (accepted != nullptr) *accepted = 0;
  MutexLock lock(&mu_);
  if (crashed_) return CrashedError();
  FileState* state = Track(path);

  int64_t take = static_cast<int64_t>(data.size());
  Status verdict;  // OK unless an injection fires
  bool crash_now = false;

  if (options_.crash_after_bytes >= 0 &&
      total_written_ + take > options_.crash_after_bytes) {
    take = std::max<int64_t>(0, options_.crash_after_bytes - total_written_);
    crash_now = true;
    verdict = CrashedError();
  } else if (options_.write_error_probability > 0 &&
             rng_.Bernoulli(options_.write_error_probability)) {
    take = 0;
    verdict = Status::IOError("injected write error (ENOSPC)");
  } else if (take > 0 && options_.short_write_probability > 0 &&
             rng_.Bernoulli(options_.short_write_probability)) {
    take = static_cast<int64_t>(rng_.Uniform(static_cast<uint64_t>(take)));
    verdict = Status::IOError("injected short write");
  }

  if (take > 0) {
    // Append the accepted prefix through a one-shot base handle so the base
    // file and our bookkeeping agree byte-for-byte.
    auto base = base_->OpenAppend(path);
    if (!base.ok()) return base.status();
    int64_t base_accepted = 0;
    Status s = base.value()->Append(Slice(data.data(), static_cast<size_t>(take)),
                                    &base_accepted);
    Status close_status = base.value()->Close();
    if (s.ok()) s = close_status;
    state->written += base_accepted;
    total_written_ += base_accepted;
    if (accepted != nullptr) *accepted = base_accepted;
    if (!s.ok()) return s;  // a real base failure outranks the schedule
  }
  if (!verdict.ok()) ++injected_failures_;
  if (crash_now) crashed_ = true;
  return verdict;
}

Status FaultFs::SyncWithFaults(const std::string& path) {
  MutexLock lock(&mu_);
  if (crashed_) return CrashedError();
  if (options_.sync_error_probability > 0 &&
      rng_.Bernoulli(options_.sync_error_probability)) {
    ++injected_failures_;
    return Status::IOError("injected sync error");
  }
  FileState* state = Track(path);
  state->durable = state->written;
  // No base Sync: FaultFs owns the durability model; the base Fs is only the
  // byte store, so schedules stay fast and deterministic on any substrate.
  return Status::OK();
}

Status FaultFs::ReadFile(const std::string& path, std::string* out) {
  {
    MutexLock lock(&mu_);
    if (crashed_) return CrashedError();
  }
  return base_->ReadFile(path, out);
}

Status FaultFs::ReadRange(const std::string& path, int64_t offset,
                          int64_t size, std::string* out) {
  {
    MutexLock lock(&mu_);
    if (crashed_) return CrashedError();
  }
  return base_->ReadRange(path, offset, size, out);
}

Result<std::vector<std::string>> FaultFs::ListDir(const std::string& path) {
  {
    MutexLock lock(&mu_);
    if (crashed_) return CrashedError();
  }
  return base_->ListDir(path);
}

Status FaultFs::CreateDirs(const std::string& path) {
  {
    MutexLock lock(&mu_);
    if (crashed_) return CrashedError();
  }
  return base_->CreateDirs(path);
}

Status FaultFs::RemoveFile(const std::string& path) {
  MutexLock lock(&mu_);
  if (crashed_) return CrashedError();
  files_.erase(path);
  return base_->RemoveFile(path);
}

Status FaultFs::TruncateFile(const std::string& path, int64_t size) {
  MutexLock lock(&mu_);
  if (crashed_) return CrashedError();
  if (options_.truncate_keeps_bytes) return Status::OK();
  Status s = base_->TruncateFile(path, size);
  if (s.ok()) {
    // Metadata ops are modeled as durable (the interesting races live in
    // Append/Sync); a truncate rewrites the stable prefix.
    FileState* state = Track(path);
    state->written = size;
    state->durable = size;
  }
  return s;
}

Status FaultFs::RenameFile(const std::string& from, const std::string& to) {
  MutexLock lock(&mu_);
  if (crashed_) return CrashedError();
  Status s = base_->RenameFile(from, to);
  if (s.ok()) {
    auto it = files_.find(from);
    if (it != files_.end()) {
      files_[to] = it->second;
      files_.erase(it);
    }
  }
  return s;
}

Status FaultFs::SyncDir(const std::string& path) {
  MutexLock lock(&mu_);
  if (crashed_) return CrashedError();
  return base_->SyncDir(path);
}

Result<int64_t> FaultFs::FileSize(const std::string& path) {
  {
    MutexLock lock(&mu_);
    if (crashed_) return CrashedError();
  }
  return base_->FileSize(path);
}

bool FaultFs::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

bool FaultFs::crashed() const {
  MutexLock lock(&mu_);
  return crashed_;
}

void FaultFs::CrashNow() {
  MutexLock lock(&mu_);
  crashed_ = true;
}

Status FaultFs::Restart() {
  MutexLock lock(&mu_);
  for (auto& [path, state] : files_) {
    const int64_t unsynced = state.written - state.durable;
    if (unsynced > 0) {
      // A seeded amount of the page cache made it to disk before the power
      // cut; the rest is gone.
      const int64_t survive =
          static_cast<int64_t>(rng_.Uniform(static_cast<uint64_t>(unsynced) + 1));
      const int64_t new_size = state.durable + survive;
      Status s = base_->TruncateFile(path, new_size);
      if (!s.ok()) return s;
      if (survive > 0 && options_.torn_garbage_probability > 0 &&
          rng_.Bernoulli(options_.torn_garbage_probability)) {
        // Scribble garbage over a seeded tail of the surviving unsynced
        // bytes — a torn sector. Read-modify-rewrite through the base Fs.
        std::string data;
        s = base_->ReadFile(path, &data);
        if (!s.ok()) return s;
        const int64_t torn = 1 + static_cast<int64_t>(rng_.Uniform(
                                     static_cast<uint64_t>(std::min<int64_t>(
                                         survive, 16))));
        for (int64_t i = new_size - torn; i < new_size; ++i) {
          data[static_cast<size_t>(i)] =
              static_cast<char>(rng_.Uniform(256));
        }
        s = base_->TruncateFile(path, 0);
        if (!s.ok()) return s;
        auto file = base_->OpenAppend(path);
        if (!file.ok()) return file.status();
        s = file.value()->Append(data, nullptr);
        if (!s.ok()) return s;
        s = file.value()->Close();
        if (!s.ok()) return s;
      }
    }
    state.written = state.durable =
        base_->FileSize(path).ok() ? base_->FileSize(path).value() : 0;
  }
  crashed_ = false;
  options_.crash_after_bytes = -1;  // the crash point fired; disarm it
  return Status::OK();
}

void FaultFs::SetFaultProbabilities(double write_error, double short_write,
                                    double sync_error) {
  MutexLock lock(&mu_);
  options_.write_error_probability = write_error;
  options_.short_write_probability = short_write;
  options_.sync_error_probability = sync_error;
}

void FaultFs::ArmCrashAfterBytes(int64_t more_bytes) {
  MutexLock lock(&mu_);
  options_.crash_after_bytes =
      more_bytes < 0 ? -1 : total_written_ + more_bytes;
}

int64_t FaultFs::injected_failures() const {
  MutexLock lock(&mu_);
  return injected_failures_;
}

int64_t FaultFs::total_bytes_written() const {
  MutexLock lock(&mu_);
  return total_written_;
}

}  // namespace lidi::io
