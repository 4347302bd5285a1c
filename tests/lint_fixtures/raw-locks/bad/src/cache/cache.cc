#include <mutex>
namespace lidi {
// A std::mutex named in a comment must NOT trip the check.
const char* kDoc = "nor one in a string: std::lock_guard";
constexpr int64_t kWindowMillis = 60'000;
std::mutex g_mu;
void Touch() { std::lock_guard<Mutex> lock(g_mu); }
// The raw locks above are code: a separator must not pair with this '.
}  // namespace lidi
