#include "io/file.h"

#include "common/sync.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>

namespace lidi::io {

namespace {

std::string ErrnoMessage(const std::string& context) {
  return context + ": " + std::strerror(errno);
}

// ---------------------------------------------------------------------------
// PosixFs
// ---------------------------------------------------------------------------

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(Slice data, int64_t* accepted) override {
    if (accepted != nullptr) *accepted = 0;
    if (fd_ < 0) return Status::IOError("append to closed file " + path_);
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(ErrnoMessage("write " + path_));
      }
      p += n;
      left -= static_cast<size_t>(n);
      if (accepted != nullptr) *accepted += n;
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::IOError("sync of closed file " + path_);
    if (::fdatasync(fd_) != 0) {
      return Status::IOError(ErrnoMessage("fdatasync " + path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      return Status::IOError(ErrnoMessage("close " + path_));
    }
    return Status::OK();
  }

 private:
  int fd_;
  const std::string path_;
};

class PosixFs : public Fs {
 public:
  Result<std::unique_ptr<WritableFile>> OpenAppend(
      const std::string& path) override {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) return Status::IOError(ErrnoMessage("open " + path));
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(fd, path));
  }

  Status ReadFile(const std::string& path, std::string* out) override {
    out->clear();
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Status::IOError(ErrnoMessage("open " + path));
    char buf[64 << 10];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        const Status s = Status::IOError(ErrnoMessage("read " + path));
        ::close(fd);
        return s;
      }
      if (n == 0) break;
      out->append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return Status::OK();
  }

  Status ReadRange(const std::string& path, int64_t offset, int64_t size,
                   std::string* out) override {
    out->clear();
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Status::IOError(ErrnoMessage("open " + path));
    // Size the buffer by what the file holds past `offset`, not by the
    // request alone.
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const Status s = Status::IOError(ErrnoMessage("fstat " + path));
      ::close(fd);
      return s;
    }
    const int64_t left =
        std::max<int64_t>(0, static_cast<int64_t>(st.st_size) - offset);
    out->resize(static_cast<size_t>(std::clamp<int64_t>(size, 0, left)));
    size_t have = 0;
    while (have < out->size()) {
      const ssize_t n = ::pread(fd, out->data() + have, out->size() - have,
                                static_cast<off_t>(offset) +
                                    static_cast<off_t>(have));
      if (n < 0) {
        if (errno == EINTR) continue;
        const Status s = Status::IOError(ErrnoMessage("pread " + path));
        ::close(fd);
        out->clear();
        return s;
      }
      if (n == 0) break;  // end of file
      have += static_cast<size_t>(n);
    }
    ::close(fd);
    out->resize(have);
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    namespace fs = std::filesystem;
    std::error_code ec;
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      names.push_back(entry.path().filename().string());
    }
    if (ec) return Status::IOError("listdir " + path + ": " + ec.message());
    std::sort(names.begin(), names.end());
    return names;
  }

  Status CreateDirs(const std::string& path) override {
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec) return Status::IOError("mkdirs " + path + ": " + ec.message());
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      return Status::IOError(ErrnoMessage("unlink " + path));
    }
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, int64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Status::IOError(ErrnoMessage("truncate " + path));
    }
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError(ErrnoMessage("rename " + from + " -> " + to));
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return Status::IOError(ErrnoMessage("open dir " + path));
    Status s;
    if (::fsync(fd) != 0) s = Status::IOError(ErrnoMessage("fsync dir " + path));
    ::close(fd);
    return s;
  }

  Result<int64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return Status::IOError(ErrnoMessage("stat " + path));
    }
    return static_cast<int64_t>(st.st_size);
  }

  bool FileExists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }
};

// ---------------------------------------------------------------------------
// MemFs
// ---------------------------------------------------------------------------

std::string NormalizePath(const std::string& path) {
  std::string p = path;
  while (p.size() > 1 && p.back() == '/') p.pop_back();
  return p;
}

class MemFs;

class MemWritableFile : public WritableFile {
 public:
  MemWritableFile(MemFs* fs, std::string path)
      : fs_(fs), path_(std::move(path)) {}

  Status Append(Slice data, int64_t* accepted) override;
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }

 private:
  MemFs* const fs_;
  const std::string path_;
};

class MemFs : public Fs {
 public:
  Result<std::unique_ptr<WritableFile>> OpenAppend(
      const std::string& path) override {
    const std::string p = NormalizePath(path);
    MutexLock lock(&mu_);
    files_[p];  // create if absent
    return std::unique_ptr<WritableFile>(
        std::make_unique<MemWritableFile>(this, p));
  }

  Status AppendBytes(const std::string& path, Slice data) {
    MutexLock lock(&mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::IOError("no such file " + path);
    it->second.append(data.data(), data.size());
    return Status::OK();
  }

  Status ReadFile(const std::string& path, std::string* out) override {
    MutexLock lock(&mu_);
    auto it = files_.find(NormalizePath(path));
    if (it == files_.end()) return Status::IOError("no such file " + path);
    *out = it->second;
    return Status::OK();
  }

  Status ReadRange(const std::string& path, int64_t offset, int64_t size,
                   std::string* out) override {
    MutexLock lock(&mu_);
    auto it = files_.find(NormalizePath(path));
    if (it == files_.end()) return Status::IOError("no such file " + path);
    const std::string& data = it->second;
    const size_t begin = std::min(static_cast<size_t>(offset), data.size());
    out->assign(data, begin, static_cast<size_t>(size));
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    const std::string dir = NormalizePath(path);
    MutexLock lock(&mu_);
    std::vector<std::string> names;
    const std::string prefix = dir + "/";
    for (const auto& [p, data] : files_) {
      if (p.size() > prefix.size() && p.compare(0, prefix.size(), prefix) == 0 &&
          p.find('/', prefix.size()) == std::string::npos) {
        names.push_back(p.substr(prefix.size()));
      }
    }
    return names;  // map iteration is already sorted
  }

  Status CreateDirs(const std::string& path) override {
    MutexLock lock(&mu_);
    dirs_.insert(NormalizePath(path));
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    MutexLock lock(&mu_);
    if (files_.erase(NormalizePath(path)) == 0) {
      return Status::IOError("no such file " + path);
    }
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, int64_t size) override {
    MutexLock lock(&mu_);
    auto it = files_.find(NormalizePath(path));
    if (it == files_.end()) return Status::IOError("no such file " + path);
    it->second.resize(static_cast<size_t>(size));
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    MutexLock lock(&mu_);
    auto it = files_.find(NormalizePath(from));
    if (it == files_.end()) return Status::IOError("no such file " + from);
    files_[NormalizePath(to)] = std::move(it->second);
    files_.erase(it);
    return Status::OK();
  }

  Status SyncDir(const std::string& path) override { return Status::OK(); }

  Result<int64_t> FileSize(const std::string& path) override {
    MutexLock lock(&mu_);
    auto it = files_.find(NormalizePath(path));
    if (it == files_.end()) return Status::IOError("no such file " + path);
    return static_cast<int64_t>(it->second.size());
  }

  bool FileExists(const std::string& path) override {
    MutexLock lock(&mu_);
    return files_.count(NormalizePath(path)) > 0;
  }

 private:
  mutable Mutex mu_{"io.memfs"};
  std::map<std::string, std::string> files_ LIDI_GUARDED_BY(mu_);
  std::set<std::string> dirs_ LIDI_GUARDED_BY(mu_);
};

Status MemWritableFile::Append(Slice data, int64_t* accepted) {
  if (accepted != nullptr) *accepted = 0;
  Status s = fs_->AppendBytes(path_, data);
  if (s.ok() && accepted != nullptr) {
    *accepted = static_cast<int64_t>(data.size());
  }
  return s;
}

}  // namespace

Status Fs::ReadRange(const std::string& path, int64_t offset, int64_t size,
                     std::string* out) {
  std::string data;
  Status s = ReadFile(path, &data);
  out->clear();
  if (!s.ok()) return s;
  const size_t begin = std::min(static_cast<size_t>(offset), data.size());
  out->assign(data, begin, static_cast<size_t>(size));
  return Status::OK();
}

const char* SyncPolicyName(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kNever:
      return "never";
    case SyncPolicy::kInterval:
      return "interval";
    case SyncPolicy::kAlways:
      return "always";
  }
  return "unknown";
}

Fs* DefaultFs() {
  static PosixFs* fs = new PosixFs();
  return fs;
}

std::unique_ptr<Fs> NewMemFs() { return std::make_unique<MemFs>(); }

}  // namespace lidi::io
