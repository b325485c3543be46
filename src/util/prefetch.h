// A cache prefetch hint for loops whose iterations are independent cache
// misses (the snapshot recorder's per-wave lookups): requesting the lines a
// few iterations ahead lets the misses overlap instead of queueing.
#pragma once

namespace fg::util {

/// Hint that the cache line holding `p` will be read soon. No effect on
/// program state; a no-op where the compiler has no prefetch builtin.
inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

}  // namespace fg::util
