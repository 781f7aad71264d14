#include "store/posting_cursor.h"

#include <bit>

namespace tegra {
namespace store {

namespace {

inline __attribute__((always_inline)) uint64_t AndPopcountLoop(
    const uint64_t* a, const uint64_t* b, size_t words) {
  uint64_t hits = 0;
  for (size_t i = 0; i < words; ++i) hits += std::popcount(a[i] & b[i]);
  return hits;
}

// Without -mpopcnt, std::popcount is a libgcc call per word. On x86-64 the
// loop is also compiled for the popcnt instruction and picked at run time
// on CPUs that have it. (A plain function and a CPU check, not an ifunc:
// ifunc resolvers run before the sanitizer runtimes start.)
#if defined(__x86_64__) && !defined(__POPCNT__)
#define TEGRA_POPCNT_DISPATCH 1
__attribute__((target("popcnt"))) uint64_t AndPopcountInstruction(
    const uint64_t* a, const uint64_t* b, size_t words) {
  return AndPopcountLoop(a, b, words);
}
#endif

}  // namespace

uint64_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t words) {
#ifdef TEGRA_POPCNT_DISPATCH
  static const bool has_popcnt = __builtin_cpu_supports("popcnt");
  if (has_popcnt) return AndPopcountInstruction(a, b, words);
#endif
  return AndPopcountLoop(a, b, words);
}

}  // namespace store
}  // namespace tegra
