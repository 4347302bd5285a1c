#include "cache/cache.h"
// Single-threaded bench driver; nothing to analyze.
void Drive() LIDI_NO_THREAD_SAFETY_ANALYSIS;
