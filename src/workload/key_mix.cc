#include "workload/key_mix.h"

#include <algorithm>
#include <string>
#include <utility>

namespace lidi::workload {

SessionMix::SessionMix(const SessionMixOptions& options)
    : options_(options),
      users_(std::max<uint64_t>(1, options.num_users), options.theta,
             options.seed),
      rng_(options.seed ^ 0x5e551011u) {}

SessionMix::Op SessionMix::Next() {
  if (!in_session_) {
    current_user_ = users_.Next();
    session_pos_ = 0;
    in_session_ = true;
  }
  Op op;
  op.user = current_user_;
  op.session_op = session_pos_++;
  op.is_read = rng_.NextDouble() < options_.read_fraction;
  const uint64_t slot =
      rng_.Uniform(std::max<uint64_t>(1, options_.keys_per_user));
  // Appending to a fresh string, not "u" + std::to_string(...): GCC 12 at
  // -O3 reports a false -Wrestrict overlap in the prepending operator+ (and
  // in assigning "u" to op.key).
  std::string key = "u";
  key += std::to_string(op.user);
  key += ":k";
  key += std::to_string(slot);
  op.key = std::move(key);
  op.client = "client-" + std::to_string(
                  op.user % std::max<uint64_t>(1, options_.client_shards));
  // Geometric session end: mean_session_ops is the expected run length.
  const double end_p = 1.0 / std::max(1.0, options_.mean_session_ops);
  if (rng_.NextDouble() < end_p) in_session_ = false;
  return op;
}

}  // namespace lidi::workload
