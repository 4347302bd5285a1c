#ifndef LIDI_VOLDEMORT_FAILURE_DETECTOR_H_
#define LIDI_VOLDEMORT_FAILURE_DETECTOR_H_

#include <functional>
#include <map>

#include "common/clock.h"
#include "common/sync.h"

namespace lidi::voldemort {

/// Options for the success-ratio failure detector.
struct FailureDetectorOptions {
  /// A node is marked down when successes/total drops below this ratio...
  double threshold = 0.8;
  /// ...once at least this many requests were observed in the (10 s)
  /// observation window.
  int minimum_requests = 10;
  /// A banned node is probed again after this long (stands in for the
  /// asynchronous recovery thread of the paper).
  int64_t ban_millis = 500;
};

/// Tracks per-node availability from observed request outcomes (paper
/// Section II.B: "the most commonly used one marks a node as down when its
/// success ratio ... falls below a pre-configured threshold. Once marked
/// down the node is considered online only when an asynchronous thread is
/// able to contact it again").
///
/// The asynchronous recovery thread is modeled by `probe`: once the ban
/// interval elapses, IsAvailable invokes the probe callback; if it reports
/// the node reachable the node is restored. Thread-safe.
class FailureDetector {
 public:
  /// `probe(node_id)` should return true if the node answers a ping.
  FailureDetector(FailureDetectorOptions options, const Clock* clock,
                  std::function<bool(int)> probe);

  void RecordSuccess(int node_id);
  void RecordFailure(int node_id);

  /// Current availability verdict; may trigger a recovery probe.
  bool IsAvailable(int node_id);

  /// Probes every banned node immediately, ignoring the ban interval, and
  /// restores the reachable ones. Returns the number restored.
  ///
  /// This is the probe-on-heal path: IsAvailable rate-limits probes by
  /// resetting banned_at on every attempt, so a node whose probe failed
  /// moments before a partition healed used to stay banned for a further
  /// full ban interval even though it was answering pings. Wire this into
  /// net::Network::AddHealListener (the sim harness does) so a heal
  /// re-admits recovered replicas at once.
  int ProbeBannedNow();

  /// Number of nodes currently marked down.
  int UnavailableCount();

 private:
  struct NodeState {
    int64_t successes = 0;
    int64_t failures = 0;
    int64_t window_start_millis = 0;
    bool banned = false;
    int64_t banned_at_millis = 0;
  };

  void MaybeRollWindowLocked(NodeState* state, int64_t now)
      LIDI_REQUIRES(mu_);

  const FailureDetectorOptions options_;
  const Clock* clock_;
  const std::function<bool(int)> probe_;
  /// Never held across the recovery probe (IsAvailable copies the probe
  /// callback out, pings unlocked, then re-locks to restore the node).
  Mutex mu_{"voldemort.failure_detector"};
  std::map<int, NodeState> nodes_ LIDI_GUARDED_BY(mu_);
};

}  // namespace lidi::voldemort

#endif  // LIDI_VOLDEMORT_FAILURE_DETECTOR_H_
