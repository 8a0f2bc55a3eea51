// Golden step counts for FRList and FRListRC: a fixed single-threaded
// script whose every step-counter total is pinned to an exact constant, in
// the style of fr_skiplist_golden_test.cpp.
//
// Three configurations run the script:
//   * FRList with sync::FingerOff — every search is the paper's SearchFrom
//     from the head;
//   * FRList with the default sync::FingerOn under a private epoch domain —
//     searches start from the thread's cached way set, so the finger hit,
//     miss and backlink counts are pinned too;
//   * FRListRC (default FingerOn) — the same algorithm under Valois
//     reference counting, with its recycle counts.
//
// The script is deterministic end to end: keys come from fixed formulas,
// one thread runs every call, the epoch-backed list owns its domain and the
// finger slots are claimed fresh by each new instance. Any change that
// alters how many hops, C&Ss, helps or finger hits the algorithm takes
// shows up here as a changed constant — the oracle a refactor of the
// flag/mark/backlink protocol must keep.
#include <gtest/gtest.h>

#include <cstdint>

#include "lf/core/fr_list.h"
#include "lf/core/fr_list_rc.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"
#include "lf/sync/finger.h"

namespace {

using lf::reclaim::EpochDomain;
using lf::reclaim::EpochReclaimer;

constexpr long kKeys = 240;

long script_key(long i) { return (i * 7919) % 509; }

struct GoldenSteps {
  std::uint64_t curr_update, next_update, cas_attempt, cas_success,
      insert_cas, flag_cas, mark_cas, pdelete_cas, backlink_traversal,
      help_marked, help_flagged, finger_hit, finger_miss, node_retired;
};

GoldenSteps steps_of(const lf::stats::Snapshot& d) {
  return {d.curr_update,   d.next_update,  d.cas_attempt,
          d.cas_success,   d.insert_cas,   d.flag_cas,
          d.mark_cas,      d.pdelete_cas,  d.backlink_traversal,
          d.help_marked,   d.help_flagged, d.finger_hit,
          d.finger_miss,   d.node_retired};
}

void expect_steps(const GoldenSteps& got, const GoldenSteps& want) {
  EXPECT_EQ(got.curr_update, want.curr_update);
  EXPECT_EQ(got.next_update, want.next_update);
  EXPECT_EQ(got.cas_attempt, want.cas_attempt);
  EXPECT_EQ(got.cas_success, want.cas_success);
  EXPECT_EQ(got.insert_cas, want.insert_cas);
  EXPECT_EQ(got.flag_cas, want.flag_cas);
  EXPECT_EQ(got.mark_cas, want.mark_cas);
  EXPECT_EQ(got.pdelete_cas, want.pdelete_cas);
  EXPECT_EQ(got.backlink_traversal, want.backlink_traversal);
  EXPECT_EQ(got.help_marked, want.help_marked);
  EXPECT_EQ(got.help_flagged, want.help_flagged);
  EXPECT_EQ(got.finger_hit, want.finger_hit);
  EXPECT_EQ(got.finger_miss, want.finger_miss);
  EXPECT_EQ(got.node_retired, want.node_retired);
}

struct GoldenShape {
  std::size_t size;
  long key_sum;
  std::size_t found;
};

// The dictionary part of the script, shared by every configuration.
template <typename List>
GoldenShape run_dictionary_script(List& l) {
  for (long i = 0; i < kKeys; ++i) l.insert(script_key(i), i);
  // Duplicates: the first 30 keys again.
  for (long i = 0; i < 30; ++i) EXPECT_FALSE(l.insert(script_key(i), -i));
  // Local windows: a finger-friendly stream of nearby keys.
  std::size_t found = 0;
  for (long w = 0; w < 509; w += 61)
    for (int pass = 0; pass < 3; ++pass)
      for (long k = w; k < w + 24; ++k) found += l.contains(k) ? 1 : 0;
  // Erase every third key in insertion order (scattered positions), then a
  // run of neighbours.
  for (long i = 0; i < kKeys; i += 3) EXPECT_TRUE(l.erase(script_key(i)));
  for (long k = 300; k < 340; ++k) l.erase(k);
  for (long k = 1; k < 509; k += 4)
    if (auto v = l.find(k)) found += static_cast<std::size_t>(*v >= 0);
  // Re-insert some erased keys.
  for (long i = 0; i < 60; i += 3) l.insert(script_key(i), i);
  long key_sum = 0;
  for (long k : l.keys()) key_sum += k;
  return {l.size(), key_sum, found};
}

// FRList only: the two-phase insertion hooks (the E1 adversary's seam) and
// the stalled-deleter hooks, so the Insert retry loop's single step and
// the helping paths are pinned as well.
template <typename List>
void run_hook_script(List& l) {
  // Locate an insertion after 1000, delete the located predecessor, then
  // drive the retry loop one step at a time: the first step fails against
  // the marked predecessor and recovers through its backlink.
  l.insert(1000, 1);
  l.insert(1002, 1);
  typename List::InsertCursor cur;
  ASSERT_TRUE(l.insert_locate(1001, 1, cur));
  ASSERT_TRUE(l.erase(1000));
  EXPECT_EQ(l.insert_try_once(cur), List::TryResult::kRetry);
  EXPECT_EQ(l.insert_try_once(cur), List::TryResult::kInserted);
  // A duplicate discovered by the retry loop's re-search.
  typename List::InsertCursor dup;
  ASSERT_TRUE(l.insert_locate(1003, 1, dup));
  ASSERT_TRUE(l.insert(1003, 2));
  ASSERT_TRUE(l.erase(1002));
  EXPECT_EQ(l.insert_try_once(dup), List::TryResult::kDuplicate);
  // Stalled deleter: flag the predecessor of 1001 and stop. An insert next
  // to it must help the deletion through HelpFlagged.
  typename List::StalledErase st;
  ASSERT_TRUE(l.erase_begin(1001, st));
  EXPECT_TRUE(l.insert(1000, 3));
  EXPECT_TRUE(l.erase_finish(st));
  EXPECT_FALSE(l.contains(1001));
}

template <typename Finger>
void run_frlist(const GoldenSteps& want_steps, const GoldenShape& want) {
  using List = lf::FRList<long, long, std::less<long>, EpochReclaimer,
                          lf::mem::PoolAlloc, Finger>;
  EpochDomain domain;
  List l{EpochReclaimer(domain)};
  const auto before = lf::stats::tls().read();
  const GoldenShape got = run_dictionary_script(l);
  run_hook_script(l);
  expect_steps(steps_of(lf::stats::tls().read() - before), want_steps);
  const auto rep = l.validate();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.key_sum, want.key_sum);
  EXPECT_EQ(got.found, want.found);
}

// The hook script adds and removes keys above the dictionary range only,
// so every configuration ends with the same dictionary.
const GoldenShape kShape{164, 40082, 334};

// curr, next, cas, cas ok, insert, flag, mark, pdelete, backlink,
// help_marked, help_flagged, finger hit, finger miss, retired.
TEST(FRListGolden, FingerOffStepTotals) {
  run_frlist<lf::sync::FingerOff>(
      {120021, 0, 565, 562, 265, 99, 99, 99, 2, 100, 100, 0, 0, 99}, kShape);
}

TEST(FRListGolden, FingerOnEpochStepTotals) {
  run_frlist<lf::sync::FingerOn>(
      {11257, 0, 565, 562, 265, 99, 99, 99, 14, 100, 100, 1179, 13, 99},
      kShape);
}

TEST(FRListRCGolden, FingerOnStepTotals) {
  lf::FRListRC<long, long> l;
  const auto before = lf::stats::tls().read();
  const GoldenShape got = run_dictionary_script(l);
  const auto d = lf::stats::tls().read() - before;
  expect_steps(steps_of(d),
               {24275, 0, 548, 548, 260, 96, 96, 96, 0, 96, 96, 1176, 9, 96});
  // Every unlinked node is recycled at once: retired == freed.
  EXPECT_EQ(d.node_freed, d.node_retired);
  EXPECT_TRUE(l.validate_counts());
  EXPECT_EQ(got.size, kShape.size);
  EXPECT_EQ(got.key_sum, kShape.key_sum);
  EXPECT_EQ(got.found, kShape.found);
  EXPECT_EQ(l.free_count(), 76u);
  EXPECT_EQ(l.arena_count(), 242u);
}

}  // namespace
