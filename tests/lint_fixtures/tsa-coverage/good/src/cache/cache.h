#include "common/sync.h"
namespace lidi {
class Cache {
 public:
  void Put(int key);
 private:
  Mutex mu_{"cache"};
  int size_ LIDI_GUARDED_BY(mu_) = 0;
  int hits_ LIDI_GUARDED_BY(mu_) = 0;
  // tsa-ok: written once before any thread is spawned.
  int generation_ = 0;
  const int capacity_ = 8;
  std::atomic<int> epoch_{0};
};
class Audit {
 private:
  static constexpr int64_t kWindowMillis = 60'000;
  Mutex mu_{"audit"};
  int64_t windows_ LIDI_GUARDED_BY(mu_) = 0;
  // Annotated after a digit separator (it's code, and it's covered).
  int64_t pending_ LIDI_GUARDED_BY(mu_) = 0;
};
}  // namespace lidi
