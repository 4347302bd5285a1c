#include "common/clock.h"
#include "common/random.h"
namespace lidi::sim {
// std::chrono and rand() appear only in this comment and in the string
// below -- neither is executable nondeterminism.
const char* kDoc = "uses std::chrono? no. uses rand()? also no.";
int64_t NowMillis(const ManualClock& clock) { return clock.NowMillis(); }
int RollDie(Random* rng) { return static_cast<int>(rng->Uniform(6)); }
// Digit separators (decimal and hex) do not open character literals.
constexpr int64_t kTickMicros = 10'000;
int64_t VirtualMicros(const ManualClock& c) { return c.NowMillis() * 1000; }
constexpr uint32_t kMask = 0xAB'CD;
int Jitter(Random* rng) { return static_cast<int>(rng->Uniform(kMask)); }
// The code above is code: a separator must not pair with this quote's '.
}  // namespace lidi::sim
