#include "common/sync.h"
namespace lidi {
// A std::mutex named in a comment must NOT trip the check.
const char* kDoc = "nor one in a string: std::lock_guard";
constexpr int64_t kWindowMillis = 60'000;
Mutex g_mu{"cache"};
void Touch() { MutexLock lock(&g_mu); }
// The wrapped locks above are code: a separator must not pair with this '.
}  // namespace lidi
