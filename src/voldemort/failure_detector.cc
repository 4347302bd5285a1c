#include "voldemort/failure_detector.h"

#include <vector>

namespace lidi::voldemort {

namespace {
// Counters decay: the observation window restarts every interval.
constexpr int64_t kWindowMillis = 10'000;
}  // namespace

FailureDetector::FailureDetector(FailureDetectorOptions options,
                                 const Clock* clock,
                                 std::function<bool(int)> probe)
    : options_(options), clock_(clock), probe_(std::move(probe)) {}

void FailureDetector::MaybeRollWindowLocked(NodeState* state, int64_t now) {
  if (now - state->window_start_millis >= kWindowMillis) {
    state->successes = 0;
    state->failures = 0;
    state->window_start_millis = now;
  }
}

void FailureDetector::RecordSuccess(int node_id) {
  MutexLock lock(&mu_);
  NodeState& state = nodes_[node_id];
  MaybeRollWindowLocked(&state, clock_->NowMillis());
  state.successes++;
  // A success from the node proves it reachable again.
  state.banned = false;
}

void FailureDetector::RecordFailure(int node_id) {
  MutexLock lock(&mu_);
  const int64_t now = clock_->NowMillis();
  NodeState& state = nodes_[node_id];
  MaybeRollWindowLocked(&state, now);
  state.failures++;
  const int64_t total = state.successes + state.failures;
  if (total >= options_.minimum_requests && !state.banned) {
    const double ratio =
        static_cast<double>(state.successes) / static_cast<double>(total);
    if (ratio < options_.threshold) {
      state.banned = true;
      state.banned_at_millis = now;
    }
  }
}

bool FailureDetector::IsAvailable(int node_id) {
  std::function<bool(int)> probe;
  {
    MutexLock lock(&mu_);
    auto it = nodes_.find(node_id);
    if (it == nodes_.end() || !it->second.banned) return true;
    const int64_t now = clock_->NowMillis();
    if (now - it->second.banned_at_millis < options_.ban_millis) return false;
    // Ban interval elapsed: let the "async recovery thread" probe it.
    it->second.banned_at_millis = now;  // rate-limit repeated probes
    probe = probe_;
  }
  const bool reachable = probe ? probe(node_id) : true;
  if (reachable) {
    MutexLock lock(&mu_);
    NodeState& state = nodes_[node_id];
    state.banned = false;
    state.successes = 0;
    state.failures = 0;
    state.window_start_millis = clock_->NowMillis();
  }
  return reachable;
}

int FailureDetector::ProbeBannedNow() {
  std::function<bool(int)> probe;
  std::vector<int> banned;
  {
    MutexLock lock(&mu_);
    probe = probe_;
    for (const auto& [id, state] : nodes_) {
      if (state.banned) banned.push_back(id);
    }
  }
  if (banned.empty()) return 0;
  int restored = 0;
  for (int node_id : banned) {
    const bool reachable = probe ? probe(node_id) : true;
    if (!reachable) continue;
    MutexLock lock(&mu_);
    NodeState& state = nodes_[node_id];
    if (!state.banned) continue;  // restored concurrently
    state.banned = false;
    state.successes = 0;
    state.failures = 0;
    state.window_start_millis = clock_->NowMillis();
    ++restored;
  }
  return restored;
}

int FailureDetector::UnavailableCount() {
  MutexLock lock(&mu_);
  int count = 0;
  for (const auto& [id, state] : nodes_) {
    if (state.banned) ++count;
  }
  return count;
}

}  // namespace lidi::voldemort
