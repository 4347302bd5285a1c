#include "voldemort/rebalance.h"

#include <algorithm>
#include <map>

#include "common/coding.h"
#include "net/address.h"

namespace lidi::voldemort {

namespace {
// Consecutive failed attempts before the in-flight migration is aborted.
constexpr int kMaxAttemptFailures = 8;
}  // namespace

std::vector<RebalanceMove> PlanRebalance(const Cluster& cluster) {
  std::vector<RebalanceMove> plan;
  const auto& nodes = cluster.nodes();
  if (nodes.size() < 2 || cluster.num_partitions() == 0) return plan;

  // Working copies the greedy loop mutates as it "applies" each move.
  std::map<int, int> count;       // node id -> partitions owned
  std::map<int, int> zone_of;     // node id -> zone
  std::map<int, int> zone_count;  // zone id -> partitions in zone
  std::map<int, std::vector<int>> owned;  // node id -> partitions, ring order
  for (const Node& n : nodes) {
    count[n.id] = 0;
    zone_of[n.id] = n.zone_id;
    zone_count[n.zone_id];  // ensure the zone exists even if empty
  }
  for (int p = 0; p < cluster.num_partitions(); ++p) {
    const int owner = cluster.OwnerOfPartition(p);
    ++count[owner];
    ++zone_count[zone_of[owner]];
    owned[owner].push_back(p);
  }

  for (;;) {
    // Source: most-loaded node; ties toward the most-loaded zone then the
    // lower id, so the plan is deterministic across metadata holders.
    int src = -1, dst = -1;
    for (const auto& [id, c] : count) {
      if (src == -1 || c > count[src] ||
          (c == count[src] &&
           zone_count[zone_of[id]] > zone_count[zone_of[src]])) {
        src = id;
      }
    }
    // Destination: least-loaded node; ties toward the zone holding the
    // fewest partitions (zone-aware spread), then the lower id.
    for (const auto& [id, c] : count) {
      if (dst == -1 || c < count[dst] ||
          (c == count[dst] &&
           zone_count[zone_of[id]] < zone_count[zone_of[dst]])) {
        dst = id;
      }
    }
    if (src == dst || count[src] - count[dst] <= 1) break;
    // Move the source's highest-numbered partition: deterministic, and it
    // peels recently-assigned partitions first.
    std::vector<int>& src_owned = owned[src];
    const int partition = src_owned.back();
    src_owned.pop_back();
    owned[dst].push_back(partition);
    --count[src];
    ++count[dst];
    --zone_count[zone_of[src]];
    ++zone_count[zone_of[dst]];
    plan.push_back(RebalanceMove{partition, src, dst});
  }
  return plan;
}

RebalanceExecutor::RebalanceExecutor(std::string store,
                                     std::shared_ptr<ClusterMetadata> metadata,
                                     net::Transport* network)
    : store_(std::move(store)),
      metadata_(std::move(metadata)),
      network_(network),
      name_("voldemort-rebalancer") {}

bool RebalanceExecutor::Step() {
  switch (phase_) {
    case Phase::kIdle: {
      // Re-plan from the live metadata every time a migration is picked:
      // the topology may have grown (AddNode) since the last look, and a
      // stale plan would fight the ring it is supposed to balance.
      const RoutingView view = metadata_->Snapshot();
      const std::vector<RebalanceMove> plan = PlanRebalance(view.cluster);
      for (const RebalanceMove& move : plan) {
        if (view.migrations.count(move.partition) > 0) continue;
        metadata_->StartMigration(move.partition, move.to_node);
        current_ = move;
        consecutive_failures_ = 0;
        phase_ = Phase::kCopy;
        return true;
      }
      return false;
    }
    case Phase::kCopy: {
      const Status copied = CopyOnce();
      if (copied.ok()) {
        consecutive_failures_ = 0;
        phase_ = Phase::kCutover;
      } else {
        FailAttempt();
      }
      return true;
    }
    case Phase::kCutover: {
      const Status cut = CutoverOnce();
      if (cut.ok()) {
        const RebalanceMove done = current_;
        ++moves_completed_;
        phase_ = Phase::kIdle;
        if (cutover_hook_) cutover_hook_(done);
      } else {
        FailAttempt();
      }
      return true;
    }
  }
  return false;
}

void RebalanceExecutor::FailAttempt() {
  ++attempt_failures_total_;
  if (++consecutive_failures_ > kMaxAttemptFailures) {
    // The source (or destination) has been unreachable for the whole retry
    // budget: abandon this migration — the pair-write window closes, no
    // ownership changed — and let a later plan pick the partition up again.
    metadata_->AbortMigration(current_.partition);
    ++moves_aborted_;
    phase_ = Phase::kIdle;
  }
}

Status RebalanceExecutor::CopyOnce() {
  const net::Address from =
      net::MakeAddress(net::Tier::kVoldemort, current_.from_node);
  const net::Address to =
      net::MakeAddress(net::Tier::kVoldemort, current_.to_node);
  // A freshly-added node may not host the store yet; AlreadyExists is the
  // normal case on every retry after the first.
  auto added = network_->Call(name_, to, "admin.add-store", store_);
  if (!added.ok() && added.status().code() != Code::kAlreadyExists) {
    return added.status();
  }
  std::string fetch_request;
  PutLengthPrefixed(&fetch_request, store_);
  PutVarint64(&fetch_request, static_cast<uint64_t>(current_.partition));
  auto image =
      network_->Call(name_, from, "admin.fetch-partition", fetch_request);
  if (!image.ok()) return image.status();
  std::string put_request;
  PutLengthPrefixed(&put_request, store_);
  put_request += image.value();
  return network_->Call(name_, to, "admin.put-raw", put_request).status();
}

Status RebalanceExecutor::CutoverOnce() {
  // Never flip ownership onto a node that cannot answer: clients route to
  // the partition's master first and would see every request fail.
  const net::Address to =
      net::MakeAddress(net::Tier::kVoldemort, current_.to_node);
  auto ping = network_->Call(name_, to, "v.ping", "");
  if (!ping.ok()) return ping.status();
  metadata_->FinishMigration(current_.partition);
  return Status::OK();
}

Status RebalanceExecutor::DriveToCompletion(int max_steps) {
  for (int i = 0; i < max_steps; ++i) {
    if (!Step()) return Status::OK();
  }
  return Status::Unavailable("rebalance did not converge in " +
                             std::to_string(max_steps) + " steps");
}

}  // namespace lidi::voldemort
