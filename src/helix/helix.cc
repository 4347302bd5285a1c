#include "helix/helix.h"

#include <algorithm>
#include <set>

namespace lidi::helix {

HelixController::HelixController(std::string cluster, zk::ZooKeeper* zookeeper)
    : cluster_(std::move(cluster)), zookeeper_(zookeeper) {
  controller_session_ = zookeeper_->CreateSession();
  // discard-ok: pre-creating the cluster skeleton; AlreadyExists when a
  // prior controller made it, and every later operation on these paths
  // re-creates-or-fails visibly through a Status-returning method.
  (void)zookeeper_->CreateRecursive(controller_session_,
                                    "/helix/" + cluster_ + "/instances", "",
                                    zk::CreateMode::kPersistent);
  // discard-ok: same best-effort skeleton pre-create as above.
  (void)zookeeper_->CreateRecursive(controller_session_,
                                    "/helix/" + cluster_ + "/live", "",
                                    zk::CreateMode::kPersistent);
}

Status HelixController::AddResource(const ResourceConfig& config) {
  MutexLock lock(&mu_);
  if (resources_.count(config.name) > 0) {
    return Status::AlreadyExists(config.name);
  }
  resources_[config.name] = config;
  return Status::OK();
}

Status HelixController::AddInstance(const std::string& instance) {
  return zookeeper_->Create(controller_session_,
                            "/helix/" + cluster_ + "/instances/" + instance,
                            "", zk::CreateMode::kPersistent);
}

Result<zk::SessionId> HelixController::ConnectParticipant(
    const std::string& instance, TransitionHandler handler) {
  if (!zookeeper_->Exists("/helix/" + cluster_ + "/instances/" + instance)) {
    Status s = AddInstance(instance);
    if (!s.ok() && s.code() != Code::kAlreadyExists) return s;
  }
  const zk::SessionId session = zookeeper_->CreateSession();
  Status s = zookeeper_->Create(session,
                                "/helix/" + cluster_ + "/live/" + instance,
                                "", zk::CreateMode::kEphemeral);
  if (!s.ok()) return s;
  MutexLock lock(&mu_);
  handlers_[instance] = std::move(handler);
  return session;
}

void HelixController::DisconnectParticipant(const std::string& instance,
                                            zk::SessionId session) {
  {
    MutexLock lock(&mu_);
    handlers_.erase(instance);
  }
  // After the lock: closing the session fires liveness watches.
  zookeeper_->CloseSession(session);
}

std::vector<std::string> HelixController::LiveInstances() const {
  auto children = zookeeper_->GetChildren("/helix/" + cluster_ + "/live");
  return children.ok() ? children.value() : std::vector<std::string>{};
}

std::vector<std::string> HelixController::ConfiguredInstances() const {
  auto children = zookeeper_->GetChildren("/helix/" + cluster_ + "/instances");
  return children.ok() ? children.value() : std::vector<std::string>{};
}

Assignment HelixController::ComputeAssignment(
    const std::string& resource,
    const std::vector<std::string>& instances) const {
  Assignment assignment;
  auto it = resources_.find(resource);
  if (it == resources_.end() || instances.empty()) return assignment;
  const ResourceConfig& config = it->second;
  const int n = static_cast<int>(instances.size());
  for (int p = 0; p < config.num_partitions; ++p) {
    auto& states = assignment[p];
    const int replicas = std::min(config.replicas, n);
    for (int r = 0; r < replicas; ++r) {
      const std::string& instance = instances[(p + r) % n];
      states[instance] = r == 0 ? ReplicaState::kMaster : ReplicaState::kSlave;
    }
  }
  return assignment;
}

Assignment HelixController::ComputeIdealState(
    const std::string& resource) const {
  // Fetch the instance list first: it is a Zookeeper round-trip, and mu_
  // must never be held across an RPC.
  const std::vector<std::string> configured = ConfiguredInstances();
  MutexLock lock(&mu_);
  return ComputeAssignment(resource, configured);
}

Assignment HelixController::ComputeBestPossibleState(
    const std::string& resource) const {
  // The best possible state given available nodes: the ideal-state
  // algorithm applied to configured ∩ live instances. Both listings are
  // Zookeeper round-trips, so they run before mu_ is taken.
  const std::vector<std::string> configured = ConfiguredInstances();
  const std::vector<std::string> live = LiveInstances();
  std::vector<std::string> available;
  for (const std::string& instance : configured) {
    if (std::find(live.begin(), live.end(), instance) != live.end()) {
      available.push_back(instance);
    }
  }
  MutexLock lock(&mu_);
  return ComputeAssignment(resource, available);
}

Assignment HelixController::GetCurrentState(const std::string& resource) const {
  MutexLock lock(&mu_);
  auto it = current_state_.find(resource);
  return it == current_state_.end() ? Assignment{} : it->second;
}

RebalancePlan HelixController::ComputePlan(const std::string& resource) const {
  RebalancePlan plan;
  const Assignment target = ComputeBestPossibleState(resource);
  const std::vector<std::string> live = LiveInstances();
  const Assignment current = GetCurrentState(resource);

  // Union of partitions in current and target.
  std::set<int> partitions;
  for (const auto& [p, states] : target) partitions.insert(p);
  for (const auto& [p, states] : current) partitions.insert(p);

  for (int p : partitions) {
    const auto target_states = target.count(p) ? target.at(p)
                                               : std::map<std::string,
                                                          ReplicaState>{};
    const auto current_states =
        current.count(p) ? current.at(p)
                         : std::map<std::string, ReplicaState>{};

    // Instances that must change state.
    std::set<std::string> involved;
    for (const auto& [inst, st] : target_states) involved.insert(inst);
    for (const auto& [inst, st] : current_states) involved.insert(inst);

    for (const std::string& instance : involved) {
      const ReplicaState from = current_states.count(instance)
                                    ? current_states.at(instance)
                                    : ReplicaState::kOffline;
      ReplicaState to = target_states.count(instance)
                            ? target_states.at(instance)
                            : ReplicaState::kOffline;
      // A dead instance cannot execute transitions; its record is cleared
      // (treat as OFFLINE now) rather than transitioned.
      const bool alive =
          std::find(live.begin(), live.end(), instance) != live.end();
      if (!alive) {
        if (from != ReplicaState::kOffline) {
          plan.dead_erasures.emplace_back(instance, p, from);
        }
        continue;
      }
      if (from == to) continue;
      Transition t{instance, resource, p, from, to};
      if (to == ReplicaState::kMaster) {
        plan.promotions.push_back(t);
      } else if (static_cast<int>(to) < static_cast<int>(from)) {
        plan.demotions.push_back(t);
      } else {
        plan.additions.push_back(t);
      }
    }
  }
  return plan;
}

int HelixController::RebalanceOnce(int max_transitions) {
  // Snapshot resources.
  std::vector<std::string> resource_names;
  {
    MutexLock lock(&mu_);
    for (const auto& [name, config] : resources_) {
      resource_names.push_back(name);
    }
  }

  int executed = 0;
  for (const std::string& resource : resource_names) {
    RebalancePlan plan = ComputePlan(resource);

    // Clear the records of dead instances first; losing a master this way
    // is a mastership change and bumps the routing epoch.
    for (const auto& [instance, p, from] : plan.dead_erasures) {
      MutexLock lock(&mu_);
      current_state_[resource][p].erase(instance);
      if (from == ReplicaState::kMaster) ++routing_epoch_;
    }

    auto execute = [&](std::vector<Transition>& list) {
      for (Transition& t : list) {
        if (executed >= max_transitions) return;
        ++executed;  // counts the attempt; failures are retried next round
        // The MASTER/SLAVE model has no OFFLINE->MASTER edge: route through
        // SLAVE.
        std::vector<Transition> steps;
        if (t.from == ReplicaState::kOffline &&
            t.to == ReplicaState::kMaster) {
          steps.push_back({t.instance, t.resource, t.partition,
                           ReplicaState::kOffline, ReplicaState::kSlave});
          steps.push_back({t.instance, t.resource, t.partition,
                           ReplicaState::kSlave, ReplicaState::kMaster});
        } else if (t.from == ReplicaState::kMaster &&
                   t.to == ReplicaState::kOffline) {
          steps.push_back({t.instance, t.resource, t.partition,
                           ReplicaState::kMaster, ReplicaState::kSlave});
          steps.push_back({t.instance, t.resource, t.partition,
                           ReplicaState::kSlave, ReplicaState::kOffline});
        } else {
          steps.push_back(t);
        }
        for (const Transition& step : steps) {
          TransitionHandler handler;
          {
            MutexLock lock(&mu_);
            auto hit = handlers_.find(step.instance);
            if (hit != handlers_.end()) handler = hit->second;
          }
          Status s = handler ? handler(step) : Status::OK();
          if (!s.ok()) break;  // retried on the next pipeline run
          MutexLock lock(&mu_);
          // Any step that makes or unmakes a master is a routing-visible
          // cutover: bump the epoch so in-flight router requests know to
          // re-resolve instead of failing (DESIGN.md §13).
          if (step.to == ReplicaState::kMaster ||
              step.from == ReplicaState::kMaster) {
            ++routing_epoch_;
          }
          if (step.to == ReplicaState::kOffline) {
            current_state_[resource][step.partition].erase(step.instance);
          } else {
            current_state_[resource][step.partition][step.instance] = step.to;
          }
        }
      }
    };
    execute(plan.demotions);
    execute(plan.additions);
    execute(plan.promotions);
  }
  return executed;
}

int64_t HelixController::RoutingEpoch() const {
  MutexLock lock(&mu_);
  return routing_epoch_;
}

int HelixController::RebalanceToConvergence() {
  int total = 0;
  for (int round = 0; round < 64; ++round) {
    const int n = RebalanceOnce();
    total += n;
    if (n == 0) break;
  }
  return total;
}

std::string HelixController::MasterOf(const std::string& resource,
                                      int partition) const {
  MutexLock lock(&mu_);
  auto rit = current_state_.find(resource);
  if (rit == current_state_.end()) return "";
  auto pit = rit->second.find(partition);
  if (pit == rit->second.end()) return "";
  for (const auto& [instance, state] : pit->second) {
    if (state == ReplicaState::kMaster) return instance;
  }
  return "";
}

std::vector<int> HelixController::MasterlessPartitions(
    const std::string& resource) const {
  std::vector<int> out;
  int num_partitions = 0;
  {
    MutexLock lock(&mu_);
    auto it = resources_.find(resource);
    if (it == resources_.end()) return out;
    num_partitions = it->second.num_partitions;
  }
  for (int p = 0; p < num_partitions; ++p) {
    if (MasterOf(resource, p).empty()) out.push_back(p);
  }
  return out;
}

void HelixController::HandleLivenessChange() { RebalanceOnce(); }

}  // namespace lidi::helix
