// Golden step counts for FRSkipList: a fixed single-threaded script whose
// every step-counter total is pinned to an exact constant. The constants
// were captured with the skip list's former finger layer compiled out, so
// they also pin that every search is the paper's plain head descent.
//
// The script is deterministic end to end: keys and tower heights come from
// fixed formulas (insert_with_height, no coin flips), the structure owns a
// private epoch domain, and one thread runs every call. Any change to the
// node representation, the descent, or the flag/mark/backlink steps that
// alters how many hops, C&Ss or helps the paper's algorithm takes shows up
// here as a changed constant — the oracle a layout refactor must keep.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "lf/core/fr_skiplist.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"

namespace {

using lf::reclaim::EpochDomain;
using lf::reclaim::EpochReclaimer;

constexpr long kKeys = 400;

long script_key(long i) { return (i * 7919) % 1009; }

int script_height(long i) {
  int h = 1;
  for (long x = i + 1; (x & 1) == 0 && h < 9; x >>= 1) ++h;
  return h;
}

struct GoldenSteps {
  std::uint64_t curr_update, next_update, cas_attempt, cas_success,
      insert_cas, flag_cas, mark_cas, pdelete_cas, backlink_traversal,
      help_marked, help_flagged, finger_hit, finger_miss, node_retired;
};

struct GoldenShape {
  std::size_t size, node_count, towers, full, incomplete;
  std::map<int, std::size_t> height_counts;
  long range_sum;
  std::size_t found;
};

void run_script(const GoldenSteps& want_steps, const GoldenShape& want) {
  using Skip = lf::FRSkipList<long, long>;
  EpochDomain domain;
  Skip s{EpochReclaimer(domain)};
  const auto before = lf::stats::tls().read();

  for (long i = 0; i < kKeys; ++i)
    s.insert_with_height(script_key(i), i, script_height(i));
  // Duplicates: the first 40 keys again, with different heights.
  for (long i = 0; i < 40; ++i)
    ASSERT_EQ(s.insert_with_height(script_key(i), -i, script_height(i + 1)),
              Skip::InsertStatus::kDuplicate);
  // Erase every third key, walking the keys in insertion order (scattered
  // positions), then a run of neighbours.
  for (long i = 0; i < kKeys; i += 3) ASSERT_TRUE(s.erase(script_key(i)));
  for (long k = 500; k < 540; ++k) s.erase(k);
  std::size_t found = 0;
  for (long k = 0; k < 1009; k += 2) found += s.contains(k) ? 1 : 0;
  for (long k = 1; k < 1009; k += 5)
    if (auto v = s.find(k)) found += static_cast<std::size_t>(*v >= 0);
  long range_sum = 0;
  for (long lo = 0; lo < 1009; lo += 97)
    s.for_each_range(lo, lo + 40, [&](long k, long) { range_sum += k; });
  // Re-insert some erased keys.
  for (long i = 0; i < 60; i += 3)
    s.insert_with_height(script_key(i), i, script_height(i + 2));

  const auto d = lf::stats::tls().read() - before;
  const GoldenSteps got{d.curr_update,   d.next_update,  d.cas_attempt,
                        d.cas_success,   d.insert_cas,   d.flag_cas,
                        d.mark_cas,      d.pdelete_cas,  d.backlink_traversal,
                        d.help_marked,   d.help_flagged, d.finger_hit,
                        d.finger_miss,   d.node_retired};
  EXPECT_EQ(got.curr_update, want_steps.curr_update);
  EXPECT_EQ(got.next_update, want_steps.next_update);
  EXPECT_EQ(got.cas_attempt, want_steps.cas_attempt);
  EXPECT_EQ(got.cas_success, want_steps.cas_success);
  EXPECT_EQ(got.insert_cas, want_steps.insert_cas);
  EXPECT_EQ(got.flag_cas, want_steps.flag_cas);
  EXPECT_EQ(got.mark_cas, want_steps.mark_cas);
  EXPECT_EQ(got.pdelete_cas, want_steps.pdelete_cas);
  EXPECT_EQ(got.backlink_traversal, want_steps.backlink_traversal);
  EXPECT_EQ(got.help_marked, want_steps.help_marked);
  EXPECT_EQ(got.help_flagged, want_steps.help_flagged);
  EXPECT_EQ(got.finger_hit, want_steps.finger_hit);
  EXPECT_EQ(got.finger_miss, want_steps.finger_miss);
  EXPECT_EQ(got.node_retired, want_steps.node_retired);

  const auto rep = s.validate();
  ASSERT_TRUE(rep.ok) << rep.error;
  const auto census = s.census();
  EXPECT_EQ(s.size(), want.size);
  EXPECT_EQ(rep.node_count, want.node_count);
  EXPECT_EQ(census.towers, want.towers);
  EXPECT_EQ(census.full, want.full);
  EXPECT_EQ(census.incomplete, want.incomplete);
  EXPECT_EQ(census.height_counts, want.height_counts);
  EXPECT_EQ(range_sum, want.range_sum);
  EXPECT_EQ(found, want.found);
}

const GoldenShape kShape{279,
                         551,
                         279,
                         279,
                         0,
                         {{1, 140}, {2, 71}, {3, 34}, {4, 17}, {5, 9},
                          {6, 4}, {7, 2}, {8, 2}},
                         44029,
                         190};

// curr, next, cas, cas ok, insert, flag, mark, pdelete, backlink,
// help_marked, help_flagged, finger hit, finger miss, retired.
TEST(FRSkipListGolden, FingerOffStepTotals) {
  run_script(
      {9365, 143, 1687, 1687, 835, 284, 284, 284, 0, 284, 284, 0, 0, 141},
      kShape);
}

}  // namespace
