#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace lidi::perfbench {

namespace {

thread_local int64_t current_span = 0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

double Micros(const Span& s) { return (s.end_ns - s.start_ns) / 1e3; }

}  // namespace

// --- SpanRecorder ---

int32_t SpanRecorder::Intern(const std::string& name) {
  MutexLock lock(&mu_);
  auto [it, inserted] =
      ids_.emplace(name, static_cast<int32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

int64_t SpanRecorder::Begin(int32_t name, int64_t parent) {
  const int64_t start = NowNs();
  MutexLock lock(&mu_);
  Span span;
  span.name = name;
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  span.parent = parent;
  span.trace = parent > 0 && parent <= static_cast<int64_t>(spans_.size())
                   ? spans_[parent - 1].trace
                   : span.id;
  span.start_ns = start;
  spans_.push_back(span);
  return span.id;
}

void SpanRecorder::End(int64_t id, int64_t bytes) {
  const int64_t end = NowNs();
  MutexLock lock(&mu_);
  if (id <= 0 || id > static_cast<int64_t>(spans_.size())) return;
  spans_[id - 1].end_ns = end;
  spans_[id - 1].bytes = bytes;
}

void SpanRecorder::Clear() {
  MutexLock lock(&mu_);
  spans_.clear();
}

std::vector<Span> SpanRecorder::spans() const {
  MutexLock lock(&mu_);
  return spans_;
}

std::vector<std::string> SpanRecorder::names() const {
  MutexLock lock(&mu_);
  return names_;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  MutexLock lock(&mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f, "%lld\t%lld\t%lld\t%s\t%lld\t%lld\t%lld\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.trace), names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.bytes));
  }
  return std::fclose(f) == 0;
}

// --- ScopedSpan ---

ScopedSpan::ScopedSpan(SpanRecorder* recorder, int32_t name)
    : ScopedSpan(recorder, name, current_span) {}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, int32_t name, int64_t parent)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->Begin(name, parent);
  saved_current_ = current_span;
  current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  recorder_->End(id_, bytes_);
  current_span = saved_current_;
}

// --- TracingTransport ---

TracingTransport::TracingTransport(net::Transport* inner,
                                   SpanRecorder* recorder)
    : inner_(inner), recorder_(recorder) {}

void TracingTransport::RegisterPayload(const net::Address& addr,
                                       const std::string& method,
                                       net::PayloadHandler handler) {
  const int32_t name = recorder_->Intern("net.handler:" + method);
  inner_->RegisterPayload(
      addr, method,
      [this, addr, method, name,
       handler = std::move(handler)](Slice request) -> Result<PinnedSlice> {
        ScopedSpan span(recorder_, name,
                        TakePending({net::CallerIdentity(), addr, method}));
        auto r = handler(request);
        span.set_bytes(static_cast<int64_t>(
            request.size() + (r.ok() ? r.value().size() : 0)));
        return r;
      });
}

void TracingTransport::Unregister(const net::Address& addr) {
  inner_->Unregister(addr);
}

Result<PinnedSlice> TracingTransport::CallPayload(
    const net::Address& from, const net::Address& to,
    const std::string& method, Slice request,
    const net::CallOptions& options) {
  ScopedSpan span(recorder_, recorder_->Intern("net.call:" + method));
  CallKey key{from, to, method};
  {
    MutexLock lock(&mu_);
    pending_[key].push_back(span.id());
  }
  auto r = inner_->CallPayload(from, to, method, request, options);
  {
    // A call that never reached its handler (refused, unreachable) is
    // still pending; drop it so no later handler claims it.
    MutexLock lock(&mu_);
    auto it = pending_.find(key);
    if (it != pending_.end()) {
      auto& ids = it->second;
      ids.erase(std::remove(ids.begin(), ids.end(), span.id()), ids.end());
      if (ids.empty()) pending_.erase(it);
    }
  }
  span.set_bytes(
      static_cast<int64_t>(request.size() + (r.ok() ? r.value().size() : 0)));
  return r;
}

void TracingTransport::Shutdown() { inner_->Shutdown(); }

net::EndpointStats TracingTransport::GetStats(const net::Address& addr) const {
  return inner_->GetStats(addr);
}

void TracingTransport::ResetStats() { inner_->ResetStats(); }

int64_t TracingTransport::total_calls() const { return inner_->total_calls(); }

int64_t TracingTransport::TakePending(const CallKey& key) {
  MutexLock lock(&mu_);
  auto it = pending_.find(key);
  if (it == pending_.end()) return 0;
  const int64_t id = it->second.front();
  it->second.erase(it->second.begin());
  if (it->second.empty()) pending_.erase(it);
  return id;
}

// --- TracingFs ---

namespace {

class TracingFile final : public io::WritableFile {
 public:
  TracingFile(std::unique_ptr<io::WritableFile> inner, SpanRecorder* recorder,
              int32_t append_name, int32_t sync_name)
      : inner_(std::move(inner)),
        recorder_(recorder),
        append_name_(append_name),
        sync_name_(sync_name) {}

  Status Append(Slice data, int64_t* accepted) override {
    ScopedSpan span(recorder_, append_name_);
    int64_t taken = 0;
    Status s = inner_->Append(data, &taken);
    span.set_bytes(taken);
    if (accepted != nullptr) *accepted = taken;
    return s;
  }

  Status Sync() override {
    ScopedSpan span(recorder_, sync_name_);
    return inner_->Sync();
  }

  Status Close() override { return inner_->Close(); }

 private:
  const std::unique_ptr<io::WritableFile> inner_;
  SpanRecorder* const recorder_;
  const int32_t append_name_;
  const int32_t sync_name_;
};

}  // namespace

TracingFs::TracingFs(io::Fs* inner, SpanRecorder* recorder)
    : inner_(inner),
      recorder_(recorder),
      append_name_(recorder->Intern("io.append")),
      sync_name_(recorder->Intern("io.sync")) {}

Result<std::unique_ptr<io::WritableFile>> TracingFs::OpenAppend(
    const std::string& path) {
  auto file = inner_->OpenAppend(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<io::WritableFile>(new TracingFile(
      std::move(file.value()), recorder_, append_name_, sync_name_));
}

Status TracingFs::ReadFile(const std::string& path, std::string* out) {
  return inner_->ReadFile(path, out);
}

Result<std::vector<std::string>> TracingFs::ListDir(const std::string& path) {
  return inner_->ListDir(path);
}

Status TracingFs::CreateDirs(const std::string& path) {
  return inner_->CreateDirs(path);
}

Status TracingFs::RemoveFile(const std::string& path) {
  return inner_->RemoveFile(path);
}

Status TracingFs::TruncateFile(const std::string& path, int64_t size) {
  return inner_->TruncateFile(path, size);
}

Status TracingFs::RenameFile(const std::string& from, const std::string& to) {
  return inner_->RenameFile(from, to);
}

Status TracingFs::SyncDir(const std::string& path) {
  return inner_->SyncDir(path);
}

Result<int64_t> TracingFs::FileSize(const std::string& path) {
  return inner_->FileSize(path);
}

bool TracingFs::FileExists(const std::string& path) {
  return inner_->FileExists(path);
}

// --- TraceView ---

TraceView::TraceView(std::vector<Span> spans, std::vector<std::string> names)
    : spans_(std::move(spans)),
      names_(std::move(names)),
      children_(spans_.size()) {
  for (const Span& s : spans_) {
    if (s.parent > 0 && s.parent <= static_cast<int64_t>(spans_.size())) {
      children_[s.parent - 1].push_back(s.id);
    }
  }
}

std::vector<const Span*> TraceView::Named(const std::string& prefix) const {
  std::vector<bool> match(names_.size());
  for (size_t i = 0; i < names_.size(); ++i) {
    match[i] = StartsWith(names_[i], prefix);
  }
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && match[s.name]) out.push_back(&s);
  }
  return out;
}

std::vector<double> TraceView::Durations(const std::string& prefix) const {
  std::vector<double> out;
  for (const Span* s : Named(prefix)) out.push_back(Micros(*s));
  return out;
}

std::vector<double> TraceView::SelfTimes(
    const std::string& prefix, const std::string& child_prefix) const {
  std::vector<double> out;
  for (const Span* s : Named(prefix)) {
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (int64_t child : children_[s->id - 1]) {
      const Span& c = spans_[child - 1];
      if (c.end_ns == 0 || !StartsWith(names_[c.name], child_prefix)) continue;
      covered.emplace_back(std::max(c.start_ns, s->start_ns),
                           std::min(c.end_ns, s->end_ns));
    }
    std::sort(covered.begin(), covered.end());
    int64_t child_ns = 0;
    int64_t reach = s->start_ns;
    for (const auto& [lo, hi] : covered) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) {
        child_ns += hi - from;
        reach = hi;
      }
    }
    out.push_back((s->end_ns - s->start_ns - child_ns) / 1e3);
  }
  return out;
}

double TraceView::ChildrenPer(const std::string& prefix,
                              const std::string& child_prefix) const {
  const auto parents = Named(prefix);
  if (parents.empty()) return 0;
  int64_t children = 0;
  for (const Span* s : parents) {
    for (int64_t child : children_[s->id - 1]) {
      if (StartsWith(names_[spans_[child - 1].name], child_prefix)) ++children;
    }
  }
  return static_cast<double>(children) / parents.size();
}

int64_t TraceView::Count(const std::string& prefix) const {
  return static_cast<int64_t>(Named(prefix).size());
}

int64_t TraceView::Bytes(const std::string& prefix) const {
  int64_t n = 0;
  for (const Span* s : Named(prefix)) n += s->bytes;
  return n;
}

}  // namespace lidi::perfbench
