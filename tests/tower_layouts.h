// Test configurations for the FRSkipList suites that are typed over tower
// layouts (fr_skiplist_whitebox_test, schedule_fuzz_test).
//
// The skip list once took a layout policy that stored a tower either as one
// node per level ("chained") or as one block ("flat"). It now always stores
// a tower as one node in one block (DESIGN.md §8), and its sixth template
// parameter is the allocator. These tags keep the four configurations the
// suites were first typed over, so each typed test keeps its name: every tag
// selects the one-node tower allocated by `Alloc`, and the chained pair runs
// exactly the same list as the flat pair.
#pragma once

#include "lf/mem/pool.h"

namespace lf::mem {

template <typename Alloc>
struct FlatTowerLayout {
  using Mem = Alloc;
  static constexpr const char* kName =
      Mem::kName[0] == 'p' ? "flat/pool" : "flat/heap";
};

template <typename Alloc>
struct ChainedTowerLayout {
  using Mem = Alloc;
  static constexpr const char* kName =
      Mem::kName[0] == 'p' ? "chained/pool" : "chained/heap";
};

}  // namespace lf::mem
