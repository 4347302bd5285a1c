#ifndef LIDI_HELIX_HELIX_H_
#define LIDI_HELIX_HELIX_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/sync.h"
#include "common/status.h"
#include "zk/zookeeper.h"

namespace lidi::helix {

/// Replica states of the MASTER/SLAVE state model the paper describes for
/// Espresso partitions (Section IV.B). The paper's state names are kept as
/// the published vocabulary of the Helix state machine.
enum class ReplicaState { kOffline = 0, kSlave = 1, kMaster = 2 };

/// A partitioned, replicated resource managed by Helix (e.g. an Espresso
/// database).
struct ResourceConfig {
  std::string name;
  int num_partitions = 8;
  int replicas = 2;  // total replicas per partition, incl. the master
};

/// partition -> instance -> state. Instances not present are OFFLINE.
using Assignment = std::map<int, std::map<std::string, ReplicaState>>;

/// One state transition Helix asks a participant to perform.
struct Transition {
  std::string instance;
  std::string resource;
  int partition = 0;
  ReplicaState from = ReplicaState::kOffline;
  ReplicaState to = ReplicaState::kOffline;
};

/// Participant callback: perform the transition (e.g. an Espresso node
/// draining the relay backlog before mastering). Returning non-OK leaves
/// the current state unchanged; the controller retries on the next pipeline
/// run.
using TransitionHandler = std::function<Status(const Transition&)>;

/// The controller pipeline's work list for one resource, in execution
/// order: demotions and drops first (a master must release before a new one
/// is promoted), then slave additions, then master promotions.
/// `dead_erasures` are current-state records of instances that died without
/// transitioning — cleared, not executed (a dead node cannot run a
/// handler). Exposed so rebalance tests and bench_helix_rebalance can
/// inspect what a pipeline run WOULD do without running it.
struct RebalancePlan {
  std::vector<Transition> demotions;
  std::vector<Transition> additions;
  std::vector<Transition> promotions;
  /// (instance, partition, last acknowledged state) of dead records.
  std::vector<std::tuple<std::string, int, ReplicaState>> dead_erasures;

  bool empty() const {
    return demotions.empty() && additions.empty() && promotions.empty() &&
           dead_erasures.empty();
  }
};

/// The generic cluster manager (paper Section IV.B): tracks live instances
/// through Zookeeper ephemerals, and drives the cluster from its
/// CURRENTSTATE toward the BESTPOSSIBLESTATE — which converges to the
/// IDEALSTATE when every configured node is up.
///
/// Zookeeper layout:
///   /helix/<cluster>/instances/<name>      (persistent: configured)
///   /helix/<cluster>/live/<name>           (ephemeral: connected)
class HelixController {
 public:
  HelixController(std::string cluster, zk::ZooKeeper* zookeeper);

  /// Registers a resource to manage.
  Status AddResource(const ResourceConfig& config);

  /// Adds a configured instance (server lifecycle management: addition
  /// without downtime).
  Status AddInstance(const std::string& instance);

  /// Connects a participant: creates its live ephemeral node and registers
  /// its transition handler. Returns the zk session backing its liveness
  /// (close it to simulate a crash).
  Result<zk::SessionId> ConnectParticipant(const std::string& instance,
                                           TransitionHandler handler);

  /// Simulated participant crash: closes the liveness session (the ephemeral
  /// vanishes) and drops the transition handler, so the controller stops
  /// calling into an object that may no longer exist. The instance stays
  /// configured; ConnectParticipant with the same name models the restart.
  void DisconnectParticipant(const std::string& instance, zk::SessionId session);

  /// IDEALSTATE: the target assignment when all configured nodes run.
  Assignment ComputeIdealState(const std::string& resource) const;

  /// BESTPOSSIBLESTATE: the ideal-state algorithm restricted to live nodes.
  Assignment ComputeBestPossibleState(const std::string& resource) const;

  /// CURRENTSTATE: what participants have acknowledged so far.
  Assignment GetCurrentState(const std::string& resource) const;

  /// The rebalance planner, factored out of the pipeline: diffs
  /// CURRENTSTATE against BESTPOSSIBLESTATE and returns the ordered
  /// transition lists WITHOUT executing anything. RebalanceOnce executes
  /// exactly this plan; tests and benches call it to predict or audit a
  /// pipeline run.
  RebalancePlan ComputePlan(const std::string& resource) const;

  /// One pass of the controller pipeline: computes BESTPOSSIBLESTATE for
  /// every resource, diffs against CURRENTSTATE, and issues transitions
  /// (demotions before promotions; at most one master per partition at all
  /// times). Returns the number of transitions attempted; failed ones are
  /// retried on the next run.
  /// Run after membership changes; idempotent at fixed point.
  int RebalanceOnce(int max_transitions = 1 << 20);

  /// Runs RebalanceOnce until no transitions are issued. Returns the total.
  int RebalanceToConvergence();

  /// Current master instance of a partition, or empty if none (routing
  /// table lookup used by the Espresso router).
  std::string MasterOf(const std::string& resource, int partition) const;

  /// Monotone routing epoch: bumped every time any partition's mastership
  /// changes (a MASTER acknowledged, demoted, or erased). Routers snapshot
  /// it before resolving a master and, on an Unavailable reply, retry the
  /// lookup only if the epoch moved — the atomic-cutover-at-the-router rule
  /// (DESIGN.md §13): a request that raced a migration is re-routed to the
  /// new master instead of surfacing a transient routing error.
  int64_t RoutingEpoch() const;

  std::vector<std::string> LiveInstances() const;
  std::vector<std::string> ConfiguredInstances() const;

  /// Health check (paper: "monitors cluster health and provides alerts"):
  /// partitions of the resource that currently lack a master.
  std::vector<int> MasterlessPartitions(const std::string& resource) const;

 private:
  Assignment ComputeAssignment(const std::string& resource,
                               const std::vector<std::string>& instances) const
      LIDI_REQUIRES(mu_);
  void HandleLivenessChange();

  const std::string cluster_;
  zk::ZooKeeper* const zookeeper_;
  // tsa-ok: written once during construction, immutable afterwards.
  zk::SessionId controller_session_;

  /// Never held across Zookeeper (instance listings run unlocked) or a
  /// participant's transition handler (the handler is copied out first).
  mutable Mutex mu_{"helix.controller"};
  std::map<std::string, ResourceConfig> resources_ LIDI_GUARDED_BY(mu_);
  std::map<std::string, TransitionHandler> handlers_ LIDI_GUARDED_BY(mu_);
  // resource -> partition -> instance -> acknowledged state
  std::map<std::string, Assignment> current_state_ LIDI_GUARDED_BY(mu_);
  // See RoutingEpoch(): bumped under mu_ on every mastership change.
  int64_t routing_epoch_ LIDI_GUARDED_BY(mu_) = 0;
};

}  // namespace lidi::helix

#endif  // LIDI_HELIX_HELIX_H_
