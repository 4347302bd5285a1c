#include "common/sync.h"
namespace lidi {
// LIDI_NO_THREAD_SAFETY_ANALYSIS named in prose is not an escape.
class Cache {
 public:
  // Runs before any thread exists.
  void Init() LIDI_NO_THREAD_SAFETY_ANALYSIS;
  void Reset() LIDI_NO_THREAD_SAFETY_ANALYSIS;  // teardown, single-threaded
  // The caller holds mu_ through a handle the analysis cannot follow.
  void Evict() LIDI_NO_THREAD_SAFETY_ANALYSIS;
  // Same handle as Evict.
  void Touch() LIDI_NO_THREAD_SAFETY_ANALYSIS;

  void Grow() LIDI_NO_THREAD_SAFETY_ANALYSIS;
};
}  // namespace lidi
