#include <mutex>
namespace lidi {
// The wrappers themselves are the one place raw primitives may live.
class Mutex {
  std::mutex mu_;
};
}  // namespace lidi
