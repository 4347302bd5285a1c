#ifndef LIDI_VOLDEMORT_REBALANCE_H_
#define LIDI_VOLDEMORT_REBALANCE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/transport.h"
#include "voldemort/cluster.h"
#include "voldemort/metadata.h"

namespace lidi::voldemort {

/// One planned partition movement (ring expansion / rebalancing, paper
/// Section II.B Admin Service).
struct RebalanceMove {
  int partition = -1;
  int from_node = -1;
  int to_node = -1;
};

/// Greedy zone-aware balance plan: moves partitions from the most-loaded
/// nodes to the least-loaded until the per-node spread is within one.
/// Destination ties break toward the zone currently holding the fewest
/// partitions (keeping replicas spread across datacenters as the ring
/// grows), then toward the lower node id — the plan is a pure function of
/// the topology, so every holder of the same metadata computes the same
/// moves. Returns moves in execution order.
std::vector<RebalanceMove> PlanRebalance(const Cluster& cluster);

/// Drives live partition movement for one store: a small state machine
/// stepped externally (the sim event loop, or a production janitor thread),
/// one bounded action per Step so traffic interleaves with every phase.
///
/// Per-migration protocol (DESIGN.md §13):
///   1. StartMigration — from this instant the old owner pair-writes every
///      put/delete to the destination (VoldemortServer::HandoffsOf).
///   2. Copy — bulk admin.fetch-partition from the source, admin.put-raw
///      into the destination. Writes racing the copy are covered by the
///      pair-write channel; the versioned merge in put-raw makes the
///      overlap idempotent.
///   3. Cutover — ping the destination, then FinishMigration: ownership
///      flips atomically in the shared metadata (version bump). There is
///      deliberately NO re-copy at cutover: the pair-write protocol is what
///      guarantees completeness, and the acceptance tests prove it by
///      disabling pairing and watching this same cutover lose writes.
///
/// After 8 consecutive copy (or cutover-ping) failures the in-flight
/// migration is aborted and re-planned later. Sources crash mid-copy in the
/// chaos schedules; abort-and-replan keeps the executor from wedging on a
/// dead node.
///
/// Not thread-safe: Step/DriveToCompletion must be called from one thread.
class RebalanceExecutor {
 public:
  RebalanceExecutor(std::string store,
                    std::shared_ptr<ClusterMetadata> metadata,
                    net::Transport* network);

  /// Performs one bounded action (start the next planned migration, one
  /// copy attempt, or one cutover attempt). Returns true while work remains
  /// or is in flight, false when the ring is balanced and idle.
  bool Step();

  /// Steps until balanced or `max_steps` exhausted (Unavailable if still
  /// unfinished — a wedged source that never healed).
  Status DriveToCompletion(int max_steps = 4096);

  /// Invoked immediately after each ownership flip, with the completed
  /// move. The sim's rebalance-aware invariant hooks here: at this instant
  /// every previously-acked write must already be readable at the NEW
  /// owner, before any repair traffic can paper over a handoff hole.
  void SetCutoverHook(std::function<void(const RebalanceMove&)> hook) {
    cutover_hook_ = std::move(hook);
  }

  bool idle() const { return phase_ == Phase::kIdle; }
  /// Partition currently mid-migration, -1 when idle.
  int in_flight_partition() const {
    return phase_ == Phase::kIdle ? -1 : current_.partition;
  }
  int64_t moves_completed() const { return moves_completed_; }
  int64_t moves_aborted() const { return moves_aborted_; }
  int64_t attempt_failures() const { return attempt_failures_total_; }

 private:
  enum class Phase { kIdle, kCopy, kCutover };

  /// One full copy attempt: ensure the store exists at the destination,
  /// fetch the partition image from the source, bulk-merge it into the
  /// destination.
  Status CopyOnce();
  /// One cutover attempt: destination liveness probe, then the flip.
  Status CutoverOnce();
  void FailAttempt();

  const std::string store_;
  const std::shared_ptr<ClusterMetadata> metadata_;
  net::Transport* const network_;
  const std::string name_;  // caller identity for admin RPCs

  Phase phase_ = Phase::kIdle;
  RebalanceMove current_;
  int consecutive_failures_ = 0;
  int64_t moves_completed_ = 0;
  int64_t moves_aborted_ = 0;
  int64_t attempt_failures_total_ = 0;
  std::function<void(const RebalanceMove&)> cutover_hook_;
};

}  // namespace lidi::voldemort

#endif  // LIDI_VOLDEMORT_REBALANCE_H_
