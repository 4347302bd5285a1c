#include "common/sync.h"
namespace lidi {
class Cache {
 public:
  void Put(int key);
 private:
  Mutex mu_{"cache"};
  int size_ LIDI_GUARDED_BY(mu_) = 0;
  // Mutable, unannotated, no waiver: the finding.
  int hits_ = 0;
  const int capacity_ = 8;        // const: exempt
  std::atomic<int> epoch_{0};     // atomic: exempt
};
class Audit {
 private:
  static constexpr int64_t kWindowMillis = 60'000;
  Mutex mu_{"audit"};
  int64_t windows_ LIDI_GUARDED_BY(mu_) = 0;
  // Unannotated after a digit separator: still a finding (it's code).
  int64_t pending_ = 0;
};
}  // namespace lidi
