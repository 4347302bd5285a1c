#include <chrono>
namespace lidi::sim {
// Mentioning std::chrono here in a comment must NOT trip the check.
int64_t NowMillis() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
int RollDie() { return rand() % 6; }
// Digit separators (decimal and hex) do not open character literals.
constexpr int64_t kTickMicros = 10'000;
int64_t WallMicros() { return time(nullptr) * kTickMicros; }
constexpr uint32_t kMask = 0xAB'CD;
int Jitter() { return rand() & kMask; }
// The calls above are code: a separator must not pair with this quote's '.
}  // namespace lidi::sim
