#include "net/address.h"

#include <string>

namespace lidi::net {

const char* TierPrefix(Tier tier) {
  switch (tier) {
    case Tier::kVoldemort:
      return "voldemort-";
    case Tier::kKafkaBroker:
      return "kafka-broker-";
    case Tier::kEspressoNode:
      return "espresso-node-";
    case Tier::kDatabusRelay:
      return "relay-";
    case Tier::kDatabusBootstrap:
      return "bootstrap-";
  }
  return "";
}

Address MakeAddress(Tier tier, int node_id) {
  return TierPrefix(tier) + std::to_string(node_id);
}

}  // namespace lidi::net
