// FRSkipListRC — the paper's skip list under Valois-style reference
// counting, completing the Section 5 suggestion ("applicable to both our
// linked lists and our skip lists, because there are no cycles among the
// physically deleted nodes").
//
// Same algorithm as FRSkipList (towers, bottom-up insert, root-first
// delete, superfluous-tower cleanup by searches — each level runs the one
// level protocol of core/level_core.h); node lifetime is managed by
// reference counts as in FRListRC (core/counted_access.h). The
// counted-pointer invariant:
//
//   count(N) = level-list links to N (succ fields)      [carry-over rules]
//            + backlink fields targeting N              [CAS-once, +1]
//            + down fields targeting N                  [immutable, +1 at
//            + tower_root fields targeting N             node creation]
//            + live thread references + in-flight SafeRead ghost pairs.
//
// A pleasant consequence: the tower-retirement protocol the epoch variant
// needs (tower_alive, see fr_skiplist.h) disappears. Here a tower is one
// node per level. Descending `down` from a held node is intrinsically
// safe — the held node owns a counted link to its lower neighbour — and
// each node is recycled individually the instant nothing can reach it. The
// cost is the usual reference-counting toll: two shared RMWs per traversal
// hop (experiment E9 quantifies it on the list; the same profile applies
// here).
//
// The down-pointer acyclicity (upper -> lower -> ... -> root, root points
// nowhere upward) is what guarantees release cascades terminate, exactly
// the property the paper cites.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <tuple>
#include <utility>

#include "lf/chaos/chaos.h"
#include "lf/core/counted_access.h"
#include "lf/core/level_core.h"
#include "lf/instrument/counters.h"
#include "lf/sync/finger.h"
#include "lf/sync/succ_field.h"
#include "lf/util/random.h"

namespace lf {

namespace detail {

// One node per tower level.
template <typename Key, typename T>
struct alignas(8) FRSkipListRCNode {
  enum class Kind : unsigned char { kHead, kInterior, kTail };

  Kind kind = Kind::kInterior;
  int level = 1;
  Key key{};
  T value{};
  sync::SuccField<FRSkipListRCNode> succ;
  std::atomic<FRSkipListRCNode*> backlink{nullptr};
  FRSkipListRCNode* down = nullptr;        // immutable; counted at creation
  FRSkipListRCNode* tower_root = nullptr;  // immutable; counted at creation
  std::atomic<std::uint64_t> refct{0};
  // Incarnation counter, bumped once per recycle before the node can be
  // reallocated; (node, stamp) pairs name incarnations for the finger layer
  // (see FRListRCNode).
  std::atomic<std::uint64_t> stamp{0};
  FRSkipListRCNode* arena_next = nullptr;
  FRSkipListRCNode* free_next = nullptr;
};

template <typename Skip, typename Key, typename T, typename Compare>
using FRSkipListRCCore =
    core::LevelCore<Skip, FRSkipListRCNode<Key, T>, Key, Compare,
                    core::CountedAccess<FRSkipListRCNode<Key, T>>,
                    core::SkipSites, core::Sweep::kSuperfluous>;

}  // namespace detail

// `Finger` (sync::FingerOn / sync::FingerOff) statically enables the
// thread-local search-hint layer: a set-associative cache of recent
// descent positions over the lowest fingered levels, kFingerCacheWays
// bracket-keyed ways per level (sync/finger.h). Probing is deref-free over
// cached bracket keys; only the way that wins a level's probe pays the
// counted re-acquisition (count + reuse stamp, see
// LevelCore::finger_resume), whose stamp equality retroactively validates
// the cached keys — so the multi-level cache costs at most one counted
// hold per search. A marked pred can recover through backlinks at ANY
// level (every node is individually counted, so safe reads need no
// retired-address argument). Erase's tower-cleanup pass keeps its full
// head descent (min_finger_level = MaxLevel), which preserves the
// superfluous-tower sweep above level 1.
template <typename Key, typename T = Key, typename Compare = std::less<Key>,
          int MaxLevel = 24, typename Finger = sync::FingerOn>
class FRSkipListRC
    : private detail::FRSkipListRCCore<
          FRSkipListRC<Key, T, Compare, MaxLevel, Finger>, Key, T, Compare> {
  static_assert(MaxLevel >= 2, "need at least two levels (erase cleanup)");
  using Core = detail::FRSkipListRCCore<FRSkipListRC, Key, T, Compare>;
  friend Core;

 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;
  using Node = detail::FRSkipListRCNode<Key, T>;

  static constexpr int kMaxTowerHeight = MaxLevel - 1;

  // Nodes waiting in the free list, and nodes ever allocated (the arena).
  using Core::arena_count;
  using Core::free_count;

 private:
  using typename Core::View;
  using Core::comp_;
  using Core::delete_node;
  using Core::drop;
  using Core::hold;
  using Core::node_eq;

 public:
  FRSkipListRC() {
    tail_ = make_node(Node::Kind::kTail, 0, Key{}, T{}, nullptr, nullptr);
    Node* below = nullptr;
    for (int v = 1; v <= MaxLevel; ++v) {
      head_[v] = make_node(Node::Kind::kHead, v, Key{}, T{}, below, nullptr);
      head_[v]->succ.store_unsynchronized(View{tail_, false, false});
      tail_->refct.fetch_add(1, std::memory_order_relaxed);  // head link
      below = head_[v];
    }
    top_hint_.store(1, std::memory_order_relaxed);
  }

  FRSkipListRC(const FRSkipListRC&) = delete;
  FRSkipListRC& operator=(const FRSkipListRC&) = delete;

  // ---- dictionary operations --------------------------------------------

  bool insert(const Key& k, T value) {
    return insert_with_height(k, std::move(value),
                              tower_rng().tower_height(kMaxTowerHeight));
  }

  // Test hook: insert with a chosen tower height instead of coin flips, so
  // tests can build a fixed shape (as FRSkipList::insert_with_height).
  bool insert_with_height(const Key& k, T value, const int tower_height) {
    assert(tower_height >= 1 && tower_height <= kMaxTowerHeight);
    auto [prev, next] = search_to_level<true>(k, 1);
    if (node_eq(prev, k)) {
      drop(prev);
      drop(next);
      stats::tls().op_insert.inc();
      return false;
    }
    Node* root = make_node(Node::Kind::kInterior, 1, k, std::move(value),
                           nullptr, nullptr);
    const bool inserted = this->build_tower(root, prev, next, tower_height);
    stats::tls().op_insert.inc();
    return inserted;
  }

  bool erase(const Key& k) {
    auto [prev, del] = search_to_level<false>(k, 1);
    const bool erased = node_eq(del, k) && delete_node(prev, del, 1);
    if (erased) {
      // Tower cleanup: full head descent (min_finger_level = MaxLevel),
      // so the superfluous-tower sweep starts above every tower.
      auto [p2, n2] = search_to_level<true>(k, 2, MaxLevel);
      drop(p2);
      drop(n2);
    }
    drop(prev);
    drop(del);
    stats::tls().op_erase.inc();
    return erased;
  }

  std::optional<T> find(const Key& k) const {
    auto [curr, next] = search_to_level<true>(k, 1);
    std::optional<T> out;
    if (node_eq(curr, k)) out.emplace(curr->value);
    drop(curr);
    drop(next);
    stats::tls().op_search.inc();
    return out;
  }

  bool contains(const Key& k) const { return find(k).has_value(); }

  std::size_t size() const {
    std::size_t n = 0;
    this->for_each_node(head_[1], 1, [&](const Node*) { return ++n, true; });
    return n;
  }

  // ---- diagnostics --------------------------------------------------------

  // Quiescent full accounting: allocated == recycled + linked + sentinels.
  bool validate_accounting() const {
    std::size_t linked = 0;
    for (int v = 1; v <= MaxLevel; ++v) {
      for (Node* p = head_[v]->succ.load().right;
           p->kind != Node::Kind::kTail; p = p->succ.load().right) {
        ++linked;
      }
    }
    return arena_count() ==
           free_count() + linked + static_cast<std::size_t>(MaxLevel) + 1;
  }

 private:
  // ---- Level-core hooks (core/level_core.h) -----------------------------
  static sync::SuccField<Node>& succ(Node* n, int) noexcept { return n->succ; }
  static std::atomic<Node*>& backlink(Node* n, int) noexcept {
    return n->backlink;
  }
  // Reading the root is safe: a held node's tower_root link is counted.
  bool superfluous(const Node* n) const noexcept {
    return n->tower_root->succ.load().mark;
  }

  // Level v of a tower is a new node whose immutable down and tower_root
  // links keep the levels below alive: the builder's creator reference
  // moves up to it.
  Node* level_node(Node* below, int v) const {
    Node* upper = make_node(Node::Kind::kInterior, v, below->key, T{}, below,
                            below->tower_root);
    drop(below);
    return upper;
  }
  // A node never linked: its stored succ was never counted.
  void abandon_level(Node* n, int) const { this->abandon(n); }

  // A node for level `level` of a tower (root == nullptr: the node is its
  // own root). Its immutable outgoing links are counted at creation and
  // released when the node is freed.
  Node* make_node(typename Node::Kind kind, int level, Key k, T v, Node* down,
                  Node* root) const {
    Node* n = this->allocate(kind);
    n->level = level;
    n->key = std::move(k);
    n->value = std::move(v);
    n->down = down;
    n->tower_root = root == nullptr ? n : root;
    if (down != nullptr) hold(down);
    if (root != nullptr) hold(root);
    return n;
  }

  void raise_top_hint(int level) const noexcept {
    int top = top_hint_.load(std::memory_order_relaxed);
    while (top < level && !top_hint_.compare_exchange_weak(
                              top, level, std::memory_order_relaxed)) {
    }
  }

  // ---- finger (search hint) layer ------------------------------------------

  static constexpr bool kFingerActive = Finger::kEnabled;
  static constexpr int kFingerLevels =
      4 < kMaxTowerHeight ? 4 : kMaxTowerHeight;

  // A way's tag is its pred's reuse stamp at save time.
  using Way = sync::FingerWay<Node, Key>;
  struct FingerSlot {
    std::uint64_t instance = 0;
    sync::FingerWays<Way> level[kFingerLevels + 1];  // [0] unused
  };

  // Level the plain head descent would enter at.
  int head_entry_level(int v) const noexcept {
    int curr_v = top_hint_.load(std::memory_order_relaxed) + 1;
    if (curr_v > MaxLevel) curr_v = MaxLevel;
    if (curr_v < v) curr_v = v;
    return curr_v;
  }

  // Picks a validated, COUNTED entry point: (start node, level), or
  // (nullptr, 0) for a head descent. Scans cached levels from
  // max(v, min_level) upward; on each, only the way whose bracket contains
  // k (tightest pred key first) is a candidate, and a dead or
  // unrecoverable candidate falls through to the next level. Hit/miss
  // accounting covers exactly the finger-eligible searches (lo <=
  // kFingerLevels); a hit also counts the levels its entry skips.
  template <bool Closed>
  std::pair<Node*, int> finger_start(const Key& k, int v,
                                     int min_level) const {
    auto& c = stats::tls();
    const int lo = min_level > v ? min_level : v;
    if (lo > kFingerLevels) return {nullptr, 0};  // never eligible
    auto& slot = sync::tls_finger_slot<FingerSlot>(finger_id_);
    if (slot.instance == finger_id_) {
      auto any = [](const Way&) { return true; };
      for (int lvl = lo; lvl <= kFingerLevels; ++lvl) {
        // A search sweeps only the nodes to the right of its start, so a
        // start whose key is k — possibly a superfluous tower of an older
        // insertion of k — would escape the sweep on every level it serves.
        // Equality is admitted only for a Closed level-1 search: its start
        // is unmarked (finger_resume), hence not superfluous, and it is the
        // search's answer.
        auto& ways = slot.level[lvl];
        const int w =
            Closed && lvl == v && v == 1
                ? sync::finger_probe<true>(ways, k, comp_, any).first
                : sync::finger_probe<false>(ways, k, comp_, any).first;
        if (w < 0) continue;
        Node* start = this->finger_resume(ways.way[w], lvl);
        if (start == nullptr) continue;  // try the next level up
        const int head_v = head_entry_level(v);
        if (head_v > lvl)
          c.finger_skip.inc(static_cast<std::uint64_t>(head_v - lvl));
        return {start, lvl};
      }
    }
    LF_CHAOS_POINT(kSkipFingerFallback);
    c.finger_miss.inc();
    return {nullptr, 0};
  }

  // Remember the (pred, succ) pair a level's SearchRight returned — both
  // held by the caller — as a way of this level's set. Only raw pointers,
  // keys, and stamps are kept; no count survives the caller's release.
  void save_finger(int lvl, Node* pred, Node* succ) const {
    if constexpr (kFingerActive) {
      if (lvl > kFingerLevels) return;
      auto& slot = sync::tls_finger_slot<FingerSlot>(finger_id_);
      sync::finger_claim(slot, finger_id_);
      sync::finger_save(
          slot.level[lvl], pred, succ,
          pred->stamp.load(std::memory_order_acquire), -1, comp_,
          [](const Way&) { return true; }, chaos::Site::kSkipFingerReplace);
    }
  }

  // ---- skip-list search (counted) ------------------------------------------

  // Returns counted (n1, n2) on level v. min_finger_level lets erase's
  // tower-cleanup sweep refuse finger entry points entirely (it passes
  // MaxLevel): the sweep must descend from above the tower it clears, and
  // the RC variant does not track tower tops, so any finger entry could
  // skip superfluous nodes above it.
  template <bool Closed>
  std::pair<Node*, Node*> search_to_level(const Key& k, int v,
                                          int min_finger_level = 0) const {
    Node* curr = nullptr;
    int curr_v = 0;
    if constexpr (kFingerActive)
      std::tie(curr, curr_v) = finger_start<Closed>(k, v, min_finger_level);
    if (curr == nullptr) {
      curr_v = head_entry_level(v);
      curr = hold(head_[curr_v]);
    }
    while (curr_v > v) {
      auto [c2, n2] = this->template search<false>(k, curr, curr_v);
      save_finger(curr_v, c2, n2);
      drop(n2);
      // Descend: c2->down is an immutable counted link, so its target is
      // alive while we hold c2; take a reference before letting c2 go.
      Node* below = hold(c2->down);
      drop(c2);
      curr = below;
      --curr_v;
    }
    auto out = this->template search<Closed>(k, curr, v);
    save_finger(v, out.first, out.second);
    return out;
  }

  std::array<Node*, MaxLevel + 1> head_{};
  Node* tail_;
  mutable std::atomic<int> top_hint_{1};
  const std::uint64_t finger_id_ = sync::next_finger_instance();
};

}  // namespace lf
