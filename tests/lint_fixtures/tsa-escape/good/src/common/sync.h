namespace lidi {
#define LIDI_NO_THREAD_SAFETY_ANALYSIS \
  __attribute__((no_thread_safety_analysis))
}  // namespace lidi
