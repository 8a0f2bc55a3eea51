// Golden step counts for FRSkipListRC: the fixed single-threaded script of
// fr_skiplist_golden_test.cpp run against the reference-counted skip list
// with its default finger layer, every step-counter total pinned to an
// exact constant.
//
// Keys and tower heights come from fixed formulas (insert_with_height, no
// coin flips), one thread runs every call and the finger slots are claimed
// fresh by the new instance, so the totals — finger hits and levels
// skipped included — are deterministic. Any change to the counted
// traversal, the descent, or the flag/mark/backlink steps shows up here as
// a changed constant.
#include <gtest/gtest.h>

#include <cstdint>

#include "lf/core/fr_skiplist_rc.h"
#include "lf/instrument/counters.h"

namespace {

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
      help_marked, help_flagged, finger_hit, finger_miss, finger_skip,
      node_retired;
};

struct GoldenShape {
  std::size_t size, found, free_count, arena_count;
};

void run_script(const GoldenSteps& want_steps, const GoldenShape& want) {
  using Skip = lf::FRSkipListRC<long, long>;
  Skip s;
  const auto before = lf::stats::tls().read();

  for (long i = 0; i < kKeys; ++i)
    s.insert_with_height(script_key(i), i, script_height(i));
  // Duplicates: the first 40 keys again, with different heights.
  for (long i = 0; i < 40; ++i)
    ASSERT_FALSE(s.insert_with_height(script_key(i), -i, script_height(i + 1)));
  // Erase every third key, walking the keys in insertion order (scattered
  // positions), then a run of neighbours.
  for (long i = 0; i < kKeys; i += 3) ASSERT_TRUE(s.erase(script_key(i)));
  for (long k = 500; k < 540; ++k) s.erase(k);
  std::size_t found = 0;
  for (long k = 0; k < 1009; k += 2) found += s.contains(k) ? 1 : 0;
  for (long k = 1; k < 1009; k += 5)
    if (auto v = s.find(k)) found += static_cast<std::size_t>(*v >= 0);
  // Re-insert some erased keys.
  for (long i = 0; i < 60; i += 3)
    s.insert_with_height(script_key(i), i, script_height(i + 2));

  const auto d = lf::stats::tls().read() - before;
  EXPECT_EQ(d.curr_update, want_steps.curr_update);
  EXPECT_EQ(d.next_update, want_steps.next_update);
  EXPECT_EQ(d.cas_attempt, want_steps.cas_attempt);
  EXPECT_EQ(d.cas_success, want_steps.cas_success);
  EXPECT_EQ(d.insert_cas, want_steps.insert_cas);
  EXPECT_EQ(d.flag_cas, want_steps.flag_cas);
  EXPECT_EQ(d.mark_cas, want_steps.mark_cas);
  EXPECT_EQ(d.pdelete_cas, want_steps.pdelete_cas);
  EXPECT_EQ(d.backlink_traversal, want_steps.backlink_traversal);
  EXPECT_EQ(d.help_marked, want_steps.help_marked);
  EXPECT_EQ(d.help_flagged, want_steps.help_flagged);
  EXPECT_EQ(d.finger_hit, want_steps.finger_hit);
  EXPECT_EQ(d.finger_miss, want_steps.finger_miss);
  EXPECT_EQ(d.finger_skip, want_steps.finger_skip);
  EXPECT_EQ(d.node_retired, want_steps.node_retired);
  // Every unlinked node is recycled at once: retired == freed.
  EXPECT_EQ(d.node_freed, d.node_retired);

  EXPECT_TRUE(s.validate_accounting());
  EXPECT_EQ(s.size(), want.size);
  EXPECT_EQ(found, want.found);
  EXPECT_EQ(s.free_count(), want.free_count);
  EXPECT_EQ(s.arena_count(), want.arena_count);
}

// curr, next, cas, cas ok, insert, flag, mark, pdelete, backlink,
// help_marked, help_flagged, finger hit, finger miss, finger skip, retired.
TEST(FRSkipListRCGolden, FingerOnStepTotals) {
  run_script({50718, 143, 1687, 1687, 835, 284, 284, 284, 0, 284, 284, 1383,
              325, 10646, 284},
             {279, 190, 246, 822});
}

}  // namespace
