#include "voldemort/cluster.h"

namespace lidi::voldemort {

Cluster::Cluster(std::vector<Node> nodes, std::vector<int> partition_ownership,
                 std::vector<Zone> zones)
    : nodes_(std::move(nodes)),
      partition_ownership_(std::move(partition_ownership)),
      zones_(std::move(zones)) {}

Cluster Cluster::Uniform(std::vector<Node> nodes, int num_partitions) {
  std::vector<int> ownership(num_partitions);
  for (int p = 0; p < num_partitions; ++p) {
    ownership[p] = nodes[p % nodes.size()].id;
  }
  return Cluster(std::move(nodes), std::move(ownership));
}

const Node* Cluster::GetNode(int node_id) const {
  for (const Node& n : nodes_) {
    if (n.id == node_id) return &n;
  }
  return nullptr;
}

std::vector<int> Cluster::PartitionsOf(int node_id) const {
  std::vector<int> out;
  for (int p = 0; p < num_partitions(); ++p) {
    if (partition_ownership_[p] == node_id) out.push_back(p);
  }
  return out;
}

void Cluster::MovePartition(int partition, int new_owner) {
  partition_ownership_[partition] = new_owner;
}

}  // namespace lidi::voldemort
