// FRSkipList — the lock-free skip list of Fomitchev & Ruppert, PODC 2004,
// Section 4: each level is an instance of the paper's linked-list algorithms
// (flag bit + mark bit + backlink per node), so every level enjoys the same
// recover-instead-of-restart behaviour as FRList: both run the one level
// protocol of core/level_core.h.
//
// Architecture (paper Figure 6): each key is represented by a TOWER of
// levels 1..h; level 1 is the ROOT and represents the whole tower. Tower
// height is chosen by fair coin flips (geometric, capped). The towers
// linked at one level form a sorted singly-linked list between the head
// tower and the tail. Each level v of a tower has its own
//
//     succ(v) = (right, mark, flag), backlink(v)   — as in FRList
//
// and the tower's key, value and retirement count are shared by all of its
// levels. The paper draws one node per level with `down` and `tower_root`
// pointers; here the whole tower is ONE node (see Node), so `down` is
// level v-1 of the same node and the tower root is the node itself.
//
// Insertion builds the tower bottom-up and is linearized when the root
// (level 1) is inserted. Deletion deletes the root first — a tower whose
// root is marked is SUPERFLUOUS — and then removes the remaining levels
// top-down.
// Searches help deletions by physically deleting every superfluous node
// they encounter; Section 4 explains that without this, an adversary can
// force operations to repeatedly traverse a chain of backlinks of length
// Ω(m_E) on the lowest level.
//
// Tower construction can be INTERRUPTED: while a process builds tower Q,
// another process may mark Q's root. The builder checks the root after
// every level it links; if the root got marked it stops, unlinking the
// level it just added (if any), and still reports success (its root made
// it in).
//
// Every search descends from the head, as the paper's SearchToLevel_SL
// does. There is no per-thread search finger here: on skip-list workloads
// its per-call probe, save and validation cost more than the hops it saves
// (DESIGN.md §10). FRList and the RC variants keep theirs.
//
// Departures from the paper's presentation, all noted in DESIGN.md:
//   * The head tower is preallocated at full height (MaxLevel), so the
//     paper's `up` pointers for growing the head are unnecessary. A
//     top-level hint makes searches start just above the tallest live
//     tower, which is what the adaptive head bought.
//   * One shared tail sentinel serves every level (its succ is never
//     modified, so per-level tail nodes would be indistinguishable).
//   * The detailed pseudocode for the skip-list routines lives in
//     Fomitchev's thesis; these routines are reconstructed from the paper's
//     prose (every step of Section 4) plus the linked-list routines of
//     Figures 3-5 they are explicitly built from.
//
// Memory: every tower, head included, is one 64-byte-aligned block from
// the allocation policy (mem::PoolAlloc by default, mem::HeapAlloc for the
// ablation benches), so an insert costs exactly one allocation. The block
// is retired in one step when the tower's last linked level is unlinked
// (see the Node comments) and freed as a unit after the grace period.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lf/core/level_core.h"
#include "lf/instrument/counters.h"
#include "lf/mem/pool.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/reclaimer.h"
#include "lf/sync/succ_field.h"
#include "lf/util/random.h"

namespace lf {

namespace detail {

// One node per tower. The header holds what every hop reads — key and
// kind — and the tower bookkeeping; the successor fields of levels
// 1..height follow it in the same block, and the cold backlinks come
// last (the RocksDB `next[height]` idiom):
//
//   [key | value | kind height | tower_alive][succ(1..h)][backlink(1..h)]
//
// For <long, long> the header is 24 bytes, so the key, the kind, the
// root mark succ(1) and the successors of levels 1..5 share the block's
// first 64-byte line, and a tower of height 1 or 2 is one line. A hop at
// any level reads the key and the superfluous check's root mark from the
// line it already loaded, and a descent stays inside the block. Both
// allocation policies hand out 64-byte-aligned blocks in whole lines, so
// adjacent towers never share a line. Public as FRSkipList::Node.
template <typename Key, typename T>
struct alignas(8) FRSkipListNode {
  using Succ = sync::SuccField<FRSkipListNode>;

  enum class Kind : unsigned char { kHead, kInterior, kTail };

  Key key;
  T value;
  Kind kind;
  std::uint8_t height;  // planned (coin-flip) height; levels 1..height

  // Tower retirement. Per-level retirement at unlink time would be
  // unsound: a level unlinked at v stays reachable by descending from the
  // tower's still-linked level v+1. Instead the tower is retired in one
  // step when its last linked level is unlinked: any reader that can
  // reach the tower (by list traversal, backlink, or descent) was
  // necessarily pinned before that single retire point, so one grace
  // period covers the whole block.
  //
  // tower_alive counts levels that are linked or about to be linked (the
  // inserter increments before attempting to link, so the count can only
  // reach zero when no link attempt is in flight and every linked level
  // has been unlinked). The unlinker or abandoner that drops it to zero
  // retires the block.
  std::atomic<int> tower_alive{1};

  FRSkipListNode(Kind k, int h, Key key_arg, T value_arg)
      : key(std::move(key_arg)),
        value(std::move(value_arg)),
        kind(k),
        height(static_cast<std::uint8_t>(h)) {
    for (int v = 1; v <= h; ++v) {
      ::new (lane(v - 1)) Succ();
      ::new (lane(h + v - 1)) std::atomic<FRSkipListNode*>(nullptr);
    }
  }

  Succ& succ(int v) noexcept {
    return *std::launder(static_cast<Succ*>(lane(v - 1)));
  }
  const Succ& succ(int v) const noexcept {
    return const_cast<FRSkipListNode*>(this)->succ(v);
  }
  std::atomic<FRSkipListNode*>& backlink(int v) noexcept {
    return *std::launder(
        static_cast<std::atomic<FRSkipListNode*>*>(lane(height + v - 1)));
  }

  // Block size of a tower of height h.
  static constexpr std::size_t bytes(int h) noexcept {
    return sizeof(FRSkipListNode) + static_cast<std::size_t>(2 * h) * kLane;
  }

 private:
  static constexpr std::size_t kLane = sizeof(Succ);
  static_assert(sizeof(Succ) == sizeof(std::atomic<FRSkipListNode*>) &&
                alignof(Succ) <= 8);

  // i-th word after the header: succ(1..h), then backlink(1..h).
  void* lane(int i) noexcept {
    return reinterpret_cast<char*>(this) + sizeof(FRSkipListNode) +
           static_cast<std::size_t>(i) * kLane;
  }
};

// The level protocol as FRSkipList runs it on each level: raw pointers
// under the reclaimer's guard, the skip-list chaos sites, and Section 4's
// SearchRight sweep of superfluous towers.
template <typename Skip, typename Key, typename T, typename Compare>
using FRSkipListCore =
    core::LevelCore<Skip, FRSkipListNode<Key, T>, Key, Compare,
                    core::RawAccess<FRSkipListNode<Key, T>>,
                    core::SkipSites, core::Sweep::kSuperfluous>;

}  // namespace detail

// The extra template parameter beyond the paper's algorithm:
//   Alloc       tower allocation policy (mem/pool.h): mem::PoolAlloc
//               (default) or mem::HeapAlloc.
template <typename Key, typename T = Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::EpochReclaimer, int MaxLevel = 24,
          typename Alloc = mem::PoolAlloc>
class FRSkipList
    : private detail::FRSkipListCore<
          FRSkipList<Key, T, Compare, Reclaimer, MaxLevel, Alloc>, Key, T,
          Compare> {
  static_assert(MaxLevel >= 2, "need at least two levels (erase cleanup)");
  static_assert(MaxLevel <= 255, "levels are stored in one byte");
  using Core = detail::FRSkipListCore<FRSkipList, Key, T, Compare>;
  friend Core;

 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;
  using Node = detail::FRSkipListNode<Key, T>;

 private:
  using typename Core::View;
  using Core::comp_;
  using Core::delete_node;
  using Core::node_eq;
  using Core::node_lt;

 public:
  // Towers occupy levels 1..kMaxTowerHeight; the head reaches one level
  // higher so the top level is always an empty express lane.
  static constexpr int kMaxTowerHeight = MaxLevel - 1;

  FRSkipList() : FRSkipList(Compare{}, Reclaimer{}) {}
  explicit FRSkipList(Reclaimer reclaimer)
      : FRSkipList(Compare{}, std::move(reclaimer)) {}
  FRSkipList(Compare comp, Reclaimer reclaimer)
      : Core(std::move(comp)), reclaimer_(std::move(reclaimer)) {
    // The head is one full-height tower; the tail is shared by all levels.
    tail_ = make_tower(Node::Kind::kTail, 1, Key{}, T{});
    head_ = make_tower(Node::Kind::kHead, MaxLevel, Key{}, T{});
    for (int v = 1; v <= MaxLevel; ++v)
      head_->succ(v).store_unsynchronized(View{tail_, false, false});
    top_hint_.store(1, std::memory_order_relaxed);
  }

  // Destruction requires quiescence: every linked tower is linked at level
  // 1 and owns one block.
  ~FRSkipList() {
    Node* n = head_->succ(1).load().right;
    while (n->kind != Node::Kind::kTail) {
      Node* next = n->succ(1).load().right;
      destroy_tower(n);
      n = next;
    }
    destroy_tower(head_);
    destroy_tower(tail_);
  }

  FRSkipList(const FRSkipList&) = delete;
  FRSkipList& operator=(const FRSkipList&) = delete;

  // ---- Dictionary operations (Insert_SL / Delete_SL / Search_SL) -------

  // insert_checked distinguishes "key already present" from "allocation
  // failed". The tower's one allocation happens before anything is linked,
  // so a throw is absorbed with nothing to undo.
  enum class InsertStatus { kInserted, kDuplicate, kNoMemory };

  bool insert(const Key& k, T value) {
    return insert_impl(k, std::move(value),
                       tower_rng().tower_height(kMaxTowerHeight)) ==
           InsertStatus::kInserted;
  }

  InsertStatus insert_checked(const Key& k, T value) {
    return insert_impl(k, std::move(value),
                       tower_rng().tower_height(kMaxTowerHeight));
  }

  // Test hook: insert with a chosen tower height instead of coin flips, so
  // tests can build a fixed shape and target a specific upper level.
  InsertStatus insert_with_height(const Key& k, T value, int tower_height) {
    assert(tower_height >= 1 && tower_height <= kMaxTowerHeight);
    return insert_impl(k, std::move(value), tower_height);
  }

  bool erase(const Key& k) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    // prev.key < k <= del.key on level 1.
    auto [prev, del] = search_to_level<false>(k, 1);
    bool erased = false;
    if (node_eq(del, k)) {
      erased = delete_node(prev, del, 1);
      if (erased) {
        // Delete_SL: re-search down to level 2 to physically delete the
        // rest of the now-superfluous tower, top-down. The descent enters
        // above every level a concurrent builder has linked (see
        // search_to_level); a level linked after it passes is removed by
        // the builder itself when it sees the marked root.
        search_to_level<true>(k, 2);
      }
    }
    stats::tls().op_erase.inc();
    return erased;
  }

  std::optional<T> find(const Key& k) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [curr, next] = search_to_level<true>(k, 1);
    (void)next;
    std::optional<T> out;
    if (node_eq(curr, k)) out.emplace(curr->value);
    stats::tls().op_search.inc();
    return out;
  }

  bool contains(const Key& k) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [curr, next] = search_to_level<true>(k, 1);
    (void)next;
    stats::tls().op_search.inc();
    return node_eq(curr, k);
  }

  // ---- Snapshot / diagnostics ------------------------------------------

  // Count of unmarked towers. O(n); approximate under concurrency.
  std::size_t size() const {
    std::size_t n = 0;
    for_each([&](const Key&, const T&) { ++n; });
    return n;
  }

  bool empty() const { return size() == 0; }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    this->for_each_node(head_, 1, [&](const Node* p) {
      fn(p->key, p->value);
      return true;
    });
  }

  std::vector<Key> keys() const {
    std::vector<Key> out;
    for_each([&](const Key& k, const T&) { out.push_back(k); });
    return out;
  }

  // Visits every regular entry with lo <= key < hi, in key order. The
  // skip list finds the range start in O(log n) expected and then walks
  // level 1 — the range-scan pattern LSM memtables and index scans use.
  // Weakly consistent under concurrency like all iteration here.
  template <typename Fn>
  void for_each_range(const Key& lo, const Key& hi, Fn&& fn) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [prev, curr] = search_to_level<false>(lo, 1);  // prev.key < lo
    (void)prev;
    for (Node* p = curr; p->kind != Node::Kind::kTail;
         p = p->succ(1).load().right) {
      if (!node_lt(p, hi)) break;  // p.key >= hi
      if (!p->succ(1).load().mark) fn(p->key, p->value);
    }
  }

  // Number of regular keys in [lo, hi). O(log n + range length) expected.
  std::size_t count_range(const Key& lo, const Key& hi) const {
    std::size_t n = 0;
    for_each_range(lo, hi, [&](const Key&, const T&) { ++n; });
    return n;
  }

  // The smallest regular key and its value, or nullopt when empty. O(1+d)
  // where d is the number of logically deleted nodes at the front — the
  // accessor priority queues need (see lf/extras/priority_queue.h).
  std::optional<std::pair<Key, T>> first() const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    std::optional<std::pair<Key, T>> out;
    this->for_each_node(head_, 1, [&](const Node* p) {
      out.emplace(p->key, p->value);
      return false;
    });
    return out;
  }

  int top_level_hint() const noexcept {
    return top_hint_.load(std::memory_order_relaxed);
  }

  // ---- Invariant validation & census (tests / E6; quiescent only) ------

  struct ValidationReport {
    bool ok = true;
    std::size_t node_count = 0;  // across all levels
    std::string error;
  };

  // Checks every level as LevelCore::validate_level does, plus the tower
  // shape: a tower's linked levels are contiguous from 1 (built bottom-up,
  // removed top-down), none above its height, and no superfluous tower is
  // linked above level 1.
  ValidationReport validate() const {
    ValidationReport rep;
    std::unordered_set<const Node*> below, here;  // towers linked at v-1, v
    for (int v = 1; v <= MaxLevel && rep.ok; ++v) {
      here.clear();
      const char* error = this->validate_level(
          head_, v, rep.node_count, [&](const Node* n) -> const char* {
            if (n->height < v) return "tower linked above its height";
            if (v > 1 && below.count(n) == 0)
              return "tower linked at a level but not the one below";
            if (v > 1 && n->succ(1).load().mark)
              return "superfluous node linked at quiescence";
            here.insert(n);
            return nullptr;
          });
      if (error != nullptr) {
        rep.ok = false;
        rep.error = error;
      }
      std::swap(below, here);
    }
    return rep;
  }

  // Tower census for experiment E6: for every linked tower, its observed
  // height and its planned (coin-flip) height. Quiescent only.
  struct TowerCensus {
    std::map<int, std::size_t> height_counts;   // observed height -> towers
    std::size_t full = 0;        // observed == planned
    std::size_t incomplete = 0;  // observed < planned (interrupted builds)
    std::size_t towers = 0;
  };

  TowerCensus census() const {
    TowerCensus out;
    std::unordered_map<const Node*, int> height;
    for (int v = 1; v <= MaxLevel; ++v) {
      for (const Node* p = head_->succ(v).load().right;
           p->kind != Node::Kind::kTail; p = p->succ(v).load().right) {
        auto [it, fresh] = height.emplace(p, v);
        if (!fresh && v > it->second) it->second = v;
      }
    }
    for (const auto& [tower, h] : height) {
      ++out.height_counts[h];
      ++out.towers;
      if (h >= tower->height) {
        ++out.full;
      } else {
        ++out.incomplete;
      }
    }
    return out;
  }

  Node* head() const noexcept { return head_; }
  Node* tail() const noexcept { return tail_; }

 private:
  // Insert_SL with an explicit tower height (public insert draws it from
  // the coin-flip rng; tests may pin it).
  InsertStatus insert_impl(const Key& k, T value, const int tower_height) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [prev, next] = search_to_level<true>(k, 1);
    if (node_eq(prev, k)) {
      stats::tls().op_insert.inc();
      return InsertStatus::kDuplicate;  // DUPLICATE_KEY
    }
    Node* node = nullptr;
    try {
      node = make_tower(Node::Kind::kInterior, tower_height, k,
                        std::move(value));
    } catch (const std::bad_alloc&) {
      stats::tls().op_insert.inc();
      return InsertStatus::kNoMemory;  // nothing linked, nothing leaked
    }
    const bool inserted = this->build_tower(node, prev, next, tower_height);
    stats::tls().op_insert.inc();
    return inserted ? InsertStatus::kInserted : InsertStatus::kDuplicate;
  }

  static Node* make_tower(typename Node::Kind kind, int height, Key key,
                          T value) {
    void* block = Alloc::allocate(Node::bytes(height));
    return ::new (block) Node(kind, height, std::move(key), std::move(value));
  }

  // Frees a tower's block: the reclaimer's deleter for retired towers, and
  // the direct path for never-published towers and teardown.
  static void destroy_tower(void* p) {
    Node* n = static_cast<Node*>(p);
    const std::size_t bytes = Node::bytes(n->height);
    n->~Node();
    Alloc::deallocate(p, bytes);
  }

  // ---- Level-core hooks (core/level_core.h) -----------------------------
  static sync::SuccField<Node>& succ(Node* n, int v) noexcept {
    return n->succ(v);
  }
  static std::atomic<Node*>& backlink(Node* n, int v) noexcept {
    return n->backlink(v);
  }
  // A tower is superfluous once its root is marked (Section 4); succ(1)
  // shares the line the key was just read from.
  bool superfluous(const Node* n) const noexcept {
    return n->succ(1).load().mark;
  }
  // Unlinking one level drops the tower reference that level held.
  void on_unlink(Node* del) const { release_tower_ref(del); }
  // Level v of a tower is the same node, once the upcoming link is
  // counted BEFORE it is attempted (see Node docs): while tower_alive
  // includes this level, nobody can retire the tower. A tower that
  // already died (count reached zero) must NOT be resurrected.
  Node* level_node(Node* tower, int) const {
    return acquire_tower_ref(tower) ? tower : nullptr;
  }
  // A level that was never linked: at level 1 the tower was never
  // published, so nobody else can hold it; above it, release the
  // reference taken for the attempt.
  void abandon_level(Node* tower, int v) const {
    if (v == 1) {
      destroy_tower(tower);
    } else {
      release_tower_ref(tower);
    }
  }

  void raise_top_hint(int level) const noexcept {
    int top = top_hint_.load(std::memory_order_relaxed);
    while (top < level && !top_hint_.compare_exchange_weak(
                              top, level, std::memory_order_relaxed)) {
    }
  }

  // ---- SearchToLevel_SL --------------------------------------------------
  //
  // Descends from the head, just above the tallest live tower, to level v,
  // traversing each level with SearchRight; returns consecutive (n1, n2) on
  // level v with n1.key <= k < n2.key (Closed) or n1.key < k <= n2.key
  // (!Closed).
  //
  // The entry level top_hint_ + 1 is at or above every level a builder has
  // linked or is about to link: a builder raises the hint to each level it
  // links before it links the next one. So erase's cleanup descent passes
  // through every linked level of the tower it clears.
  template <bool Closed>
  std::pair<Node*, Node*> search_to_level(const Key& k, int v) const {
    int curr_v = top_hint_.load(std::memory_order_relaxed) + 1;
    if (curr_v > MaxLevel) curr_v = MaxLevel;
    if (curr_v < v) curr_v = v;
    Node* curr = head_;
    while (curr_v > v) {
      curr = this->template search<false>(k, curr, curr_v).first;
      --curr_v;  // Section 4's `down`: the same tower, one level lower
    }
    return this->template search<Closed>(k, curr, v);
  }

  // Take a reference on a tower for an upcoming link attempt; fails (and
  // must abort the attempt) if the tower is already fully unlinked, since a
  // zero count means retirement has begun and may not be undone.
  bool acquire_tower_ref(Node* tower) const {
    int alive = tower->tower_alive.load(std::memory_order_acquire);
    while (alive > 0) {
      if (tower->tower_alive.compare_exchange_weak(alive, alive + 1,
                                                   std::memory_order_acq_rel))
        return true;
    }
    return false;
  }

  // Drop one reference on a tower; the thread that releases the last one
  // retires the whole block in a single step (see Node docs).
  void release_tower_ref(Node* tower) const {
    if (tower->tower_alive.fetch_sub(1, std::memory_order_acq_rel) != 1)
      return;
    reclaimer_.retire_with(tower, &destroy_tower);
  }

  mutable Reclaimer reclaimer_;
  Node* head_;  // one full-height tower
  Node* tail_;
  mutable std::atomic<int> top_hint_;

  static_assert(reclaim::reclaimer_for<Reclaimer, Node>);
  // Towers are retired with a deleter that frees the whole block, so the
  // reclaimer must support deleter-based retirement.
  static_assert(reclaim::deferred_reclaimer<Reclaimer>);
};

}  // namespace lf
