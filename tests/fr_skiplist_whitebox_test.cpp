// White-box tests for FRSkipList: tower retirement accounting, per-level
// structure after deletions, the three-step protocol at every level, and
// the first() accessor the priority-queue adapter relies on.
//
// The whole suite is typed over the tower-layout configurations
// (tower_layouts.h): the algorithm must behave identically whether tower
// blocks are pooled or heap-allocated.
#include <gtest/gtest.h>

#include "lf/core/fr_skiplist.h"
#include "lf/instrument/counters.h"
#include "lf/mem/pool.h"
#include "lf/reclaim/epoch.h"
#include "tower_layouts.h"

namespace {

template <typename Layout>
struct FRSkipListWhitebox : ::testing::Test {
  using Skip = lf::FRSkipList<long, long, std::less<long>,
                              lf::reclaim::EpochReclaimer, 24,
                              typename Layout::Mem>;
};

using Layouts =
    ::testing::Types<lf::mem::FlatTowerLayout<lf::mem::PoolAlloc>,
                     lf::mem::FlatTowerLayout<lf::mem::HeapAlloc>,
                     lf::mem::ChainedTowerLayout<lf::mem::PoolAlloc>,
                     lf::mem::ChainedTowerLayout<lf::mem::HeapAlloc>>;
TYPED_TEST_SUITE(FRSkipListWhitebox, Layouts);

TYPED_TEST(FRSkipListWhitebox, EraseRemovesKeyFromEveryLevel) {
  using Skip = typename TestFixture::Skip;
  Skip s;
  for (long k = 0; k < 300; ++k) s.insert(k, k);
  ASSERT_TRUE(s.erase(150));
  // Walk every level: no node with key 150 may remain linked.
  for (int v = 1; v <= 23; ++v) {
    for (auto* p = s.head()->succ(v).load().right;
         p->kind != Skip::Node::Kind::kTail; p = p->succ(v).load().right) {
      ASSERT_NE(p->key, 150) << "level " << v;
    }
  }
}

TYPED_TEST(FRSkipListWhitebox, TowersAreRetiredWholeAndFreed) {
  using Skip = typename TestFixture::Skip;
  lf::reclaim::EpochDomain domain;
  {
    Skip s{lf::reclaim::EpochReclaimer(domain)};
    const auto before = lf::stats::aggregate();
    for (long k = 0; k < 1000; ++k) s.insert(k, k);
    for (long k = 0; k < 1000; ++k) ASSERT_TRUE(s.erase(k));
    domain.drain();
    const auto delta = lf::stats::aggregate() - before;
    // Every tower must have been retired as one block and, after drain,
    // freed. retired == freed means no retirement leaked and none was
    // doubled (a double retire would crash in free).
    EXPECT_EQ(delta.node_retired, 1000u);
    EXPECT_EQ(delta.node_retired, delta.node_freed);
    EXPECT_EQ(domain.retired_count(), 0u);
  }
}

TYPED_TEST(FRSkipListWhitebox, DeletionRunsThreeStepsPerLevel) {
  using Skip = typename TestFixture::Skip;
  Skip s;
  // Insert until we get a tower of height >= 2 and capture its key.
  long tall_key = -1;
  for (long k = 0; k < 200 && tall_key < 0; ++k) {
    s.insert(k, k);
    for (auto* p = s.head()->succ(2).load().right;
         p->kind != Skip::Node::Kind::kTail; p = p->succ(2).load().right) {
      if (p->key == k) tall_key = k;
    }
  }
  ASSERT_GE(tall_key, 0) << "no tall tower in 200 geometric draws?!";

  // Count the tower's height.
  int height = 1;
  for (int v = 2; v <= 23; ++v) {
    bool found = false;
    for (auto* p = s.head()->succ(v).load().right;
         p->kind != Skip::Node::Kind::kTail; p = p->succ(v).load().right) {
      if (p->key == tall_key) found = true;
    }
    if (found) height = v;
  }

  const auto before = lf::stats::aggregate();
  ASSERT_TRUE(s.erase(tall_key));
  const auto delta = lf::stats::aggregate() - before;
  // One flag+mark+unlink triple per level of the tower.
  EXPECT_EQ(delta.flag_cas, static_cast<std::uint64_t>(height));
  EXPECT_EQ(delta.mark_cas, static_cast<std::uint64_t>(height));
  EXPECT_EQ(delta.pdelete_cas, static_cast<std::uint64_t>(height));
}

TYPED_TEST(FRSkipListWhitebox, FirstReturnsSmallestRegularKey) {
  using Skip = typename TestFixture::Skip;
  Skip s;
  EXPECT_FALSE(s.first().has_value());
  s.insert(50, 500);
  s.insert(20, 200);
  s.insert(80, 800);
  auto front = s.first();
  ASSERT_TRUE(front.has_value());
  EXPECT_EQ(front->first, 20);
  EXPECT_EQ(front->second, 200);
  s.erase(20);
  EXPECT_EQ(s.first()->first, 50);
  s.erase(50);
  s.erase(80);
  EXPECT_FALSE(s.first().has_value());
}

TYPED_TEST(FRSkipListWhitebox, ValidateCountsMatchCensus) {
  using Skip = typename TestFixture::Skip;
  Skip s;
  for (long k = 0; k < 5000; ++k) s.insert(k * 3, k);
  const auto rep = s.validate();
  ASSERT_TRUE(rep.ok) << rep.error;
  const auto census = s.census();
  std::size_t nodes_from_census = 0;
  for (const auto& [h, cnt] : census.height_counts)
    nodes_from_census += static_cast<std::size_t>(h) * cnt;
  EXPECT_EQ(rep.node_count, nodes_from_census);
  EXPECT_EQ(census.towers, 5000u);
}

TYPED_TEST(FRSkipListWhitebox, TopHintNeverExceedsTallestTower) {
  using Skip = typename TestFixture::Skip;
  Skip s;
  for (long k = 0; k < 3000; ++k) s.insert(k, k);
  const auto census = s.census();
  int tallest = 0;
  for (const auto& [h, cnt] : census.height_counts) tallest = h;
  EXPECT_LE(s.top_level_hint(), tallest + 1);
  EXPECT_GE(s.top_level_hint(), tallest);
}

TYPED_TEST(FRSkipListWhitebox, RangeQueriesVisitExactInterval) {
  using Skip = typename TestFixture::Skip;
  Skip s;
  for (long k = 0; k < 100; ++k) s.insert(k * 2, k);  // evens 0..198
  std::vector<long> seen;
  s.for_each_range(10, 21, [&](long k, long) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<long>{10, 12, 14, 16, 18, 20}));
  EXPECT_EQ(s.count_range(10, 21), 6u);
  // Half-open: hi excluded, lo included when present.
  EXPECT_EQ(s.count_range(10, 20), 5u);
  EXPECT_EQ(s.count_range(11, 20), 4u);  // lo absent
  // Degenerate and out-of-range intervals.
  EXPECT_EQ(s.count_range(10, 10), 0u);
  EXPECT_EQ(s.count_range(500, 600), 0u);
  EXPECT_EQ(s.count_range(-10, 0), 0u);
  EXPECT_EQ(s.count_range(-10, 1), 1u);  // just key 0
  EXPECT_EQ(s.count_range(0, 1000), 100u);  // everything
}

TYPED_TEST(FRSkipListWhitebox, RangeSkipsDeletedKeys) {
  using Skip = typename TestFixture::Skip;
  Skip s;
  for (long k = 0; k < 50; ++k) s.insert(k, k);
  for (long k = 10; k < 20; ++k) s.erase(k);
  EXPECT_EQ(s.count_range(5, 25), 10u);  // 5..9 and 20..24
  std::vector<long> seen;
  s.for_each_range(8, 22, [&](long k, long) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<long>{8, 9, 20, 21}));
}

TYPED_TEST(FRSkipListWhitebox, SearchHasNoSideEffectsOnCleanList) {
  using Skip = typename TestFixture::Skip;
  Skip s;
  for (long k = 0; k < 100; ++k) s.insert(k, k);
  const auto before = lf::stats::aggregate();
  for (long k = 0; k < 100; ++k) s.contains(k);
  const auto delta = lf::stats::aggregate() - before;
  EXPECT_EQ(delta.cas_attempt, 0u);  // nothing to help or flag
  EXPECT_EQ(delta.help_flagged, 0u);
}

// ---- Tower node representation -------------------------------------------

using DefaultSkip = lf::FRSkipList<long, long>;
using DefaultNode = DefaultSkip::Node;

std::ptrdiff_t offset_in(const DefaultNode* n, const void* field) {
  return static_cast<const char*>(field) -
         reinterpret_cast<const char*>(n);
}

// Everything a hop reads — key, kind, the root mark succ(1) and the
// successors of the low levels — lies in the block's first cache line.
TEST(TowerNode, HotFieldsShareTheFirstLine) {
  DefaultSkip s;
  ASSERT_EQ(s.insert_with_height(7, 70, 5),
            DefaultSkip::InsertStatus::kInserted);
  const DefaultNode* n = s.head()->succ(1).load().right;
  ASSERT_EQ(n->key, 7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(n) % 64, 0u);
  EXPECT_LE(offset_in(n, &n->key) + 8, 64);
  EXPECT_LT(offset_in(n, &n->kind), 64);
  for (int v = 1; v <= 4; ++v)
    EXPECT_LE(offset_in(n, &n->succ(v)) + 8, 64) << "level " << v;
  EXPECT_EQ(n->height, 5);
}

// Every level of a linked tower lives inside the tower's own block: its
// successor and backlink fields lie within the bytes(height) allocated for
// it, and the level never exceeds the tower's height.
TEST(FlatTowerLayout, UpperNodesLiveInsideTheRootBlock) {
  DefaultSkip s;
  for (long k = 0; k < 500; ++k) s.insert(k, k);
  std::size_t levels_checked = 0;
  for (int v = 2; v <= DefaultSkip::kMaxTowerHeight; ++v) {
    for (DefaultNode* p = s.head()->succ(v).load().right;
         p->kind != DefaultNode::Kind::kTail; p = p->succ(v).load().right) {
      const auto size =
          static_cast<std::ptrdiff_t>(DefaultNode::bytes(p->height));
      EXPECT_LE(v, p->height);
      EXPECT_GE(offset_in(p, &p->succ(v)), 0);
      EXPECT_LE(offset_in(p, &p->succ(v)) + 8, size);
      EXPECT_GE(offset_in(p, &p->backlink(v)), 0);
      EXPECT_LE(offset_in(p, &p->backlink(v)) + 8, size);
      ++levels_checked;
    }
  }
  // 500 coin-flip towers put ~250 nodes on level 2 alone.
  EXPECT_GT(levels_checked, 100u);
}

// A tower of height 1 or 2 is one pool line (the pool's smallest class).
TEST(TowerNode, LowTowersAreOneLine) {
  EXPECT_LE(DefaultNode::bytes(1), 64u);
  EXPECT_LE(DefaultNode::bytes(2), 64u);
  EXPECT_GT(DefaultNode::bytes(3), 64u);
  for (int h : {1, 2}) {
    DefaultSkip s;
    const auto before = lf::mem::pool_totals();
    ASSERT_EQ(s.insert_with_height(1, 1, h),
              DefaultSkip::InsertStatus::kInserted);
    EXPECT_EQ((lf::mem::pool_totals() - before).requests, 1u);
  }
}

// Every insert, whatever the tower height, is exactly one pool request.
TEST(TowerNode, EveryInsertIsOnePoolRequest) {
  DefaultSkip s;
  for (int h = 1; h <= DefaultSkip::kMaxTowerHeight; ++h) {
    const auto before = lf::mem::pool_totals();
    ASSERT_EQ(s.insert_with_height(h, h, h),
              DefaultSkip::InsertStatus::kInserted);
    EXPECT_EQ((lf::mem::pool_totals() - before).requests, 1u)
        << "height " << h;
  }
  // A rejected duplicate allocates nothing.
  const auto before = lf::mem::pool_totals();
  EXPECT_EQ(s.insert_with_height(3, 0, 4),
            DefaultSkip::InsertStatus::kDuplicate);
  EXPECT_EQ((lf::mem::pool_totals() - before).requests, 0u);
  EXPECT_EQ(s.census().full,
            static_cast<std::size_t>(DefaultSkip::kMaxTowerHeight));
}

}  // namespace
