#include "io/group_commit.h"

#include <algorithm>
#include <utility>

namespace lidi::io {

GroupCommitter::GroupCommitter(SyncFn sync_fn,
                               const GroupCommitOptions& options)
    : sync_fn_(std::move(sync_fn)) {
  if (options.metrics != nullptr) {
    const obs::Labels labels{{"layer", options.layer}};
    leader_syncs_ =
        options.metrics->GetCounter("io.group_commit.leader_syncs", labels);
    piggybacked_ =
        options.metrics->GetCounter("io.group_commit.piggybacked", labels);
    batch_msgs_ =
        options.metrics->GetHistogram("io.sync.batch_msgs", labels);
  }
}

uint64_t GroupCommitter::epoch() const {
  MutexLock lock(&mu_);
  return epoch_;
}

int64_t GroupCommitter::frontier() const {
  MutexLock lock(&mu_);
  return frontier_;
}

Status GroupCommitter::SyncTo(int64_t target, uint64_t staged_epoch) {
  MutexLock lock(&mu_);
  bool led = false;
  for (;;) {
    // Epoch first: after a failed sync the owner may have rolled its file
    // back and re-used this target's byte positions, so a frontier that
    // "covers" the target could be covering different bytes.
    if (epoch_ != staged_epoch) {
      return last_error_.ok()
                 ? Status::IOError("group sync failed while parked")
                 : last_error_;
    }
    if (frontier_ >= target) {
      if (!led && piggybacked_ != nullptr) piggybacked_->Increment();
      return Status::OK();
    }
    if (led) {
      // This thread's own successful sync covered everything staged before
      // it, yet not this target — an earlier hole (failed write by another
      // appender) blocks the contiguous frontier. Waiting longer cannot
      // acknowledge these bytes; surface it instead of spinning on the disk.
      return Status::IOError("group sync did not cover this append");
    }
    if (leader_active_) {
      ++waiting_;
      cv_.Wait(&mu_);
      --waiting_;
      continue;
    }
    // Become the leader for everything staged so far.
    leader_active_ = true;
    const int batch = 1 + waiting_;
    lock.Unlock();
    Result<int64_t> synced = sync_fn_();
    lock.Lock();
    leader_active_ = false;
    if (synced.ok()) {
      frontier_ = std::max(frontier_, synced.value());
      led = true;
      if (leader_syncs_ != nullptr) leader_syncs_->Increment();
      // Requests acknowledged by this one sync: the leader plus everyone
      // parked when it went to disk (all of whom staged before the sync and
      // are therefore covered, absent holes).
      if (batch_msgs_ != nullptr) batch_msgs_->Record(batch);
    } else {
      last_error_ = synced.status();
      ++epoch_;  // any frontier published before this failure is now stale
    }
    cv_.NotifyAll();
  }
}

}  // namespace lidi::io
