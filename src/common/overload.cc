#include "common/overload.h"

#include <algorithm>

namespace lidi {

TokenBucket::TokenBucket(double rate_per_sec, double burst)
    : rate_per_sec_(rate_per_sec),
      burst_(std::max(burst, 1.0)),
      tokens_(std::max(burst, 1.0)) {}

bool TokenBucket::TryAcquire(int64_t now_micros, double tokens) {
  if (!enabled()) return true;
  MutexLock lock(&mu_);
  if (now_micros > refilled_micros_) {
    const double elapsed_sec =
        static_cast<double>(now_micros - refilled_micros_) / 1e6;
    tokens_ = std::min(burst_, tokens_ + elapsed_sec * rate_per_sec_);
    refilled_micros_ = now_micros;
  }
  if (tokens_ < tokens) return false;
  tokens_ -= tokens;
  return true;
}

PerClientQuota::PerClientQuota(double rate_per_sec, double burst)
    : rate_per_sec_(rate_per_sec), burst_(burst) {}

bool PerClientQuota::Admit(const std::string& client, int64_t now_micros,
                           double tokens) {
  if (!enabled() || !enforcing()) return true;
  {
    ReaderLock lock(&mu_);
    auto it = buckets_.find(client);
    if (it != buckets_.end()) {
      return it->second->TryAcquire(now_micros, tokens);
    }
  }
  WriterLock lock(&mu_);
  auto [it, inserted] = buckets_.try_emplace(client, nullptr);
  if (inserted) {
    it->second = std::make_unique<TokenBucket>(rate_per_sec_, burst_);
  }
  return it->second->TryAcquire(now_micros, tokens);
}

}  // namespace lidi
