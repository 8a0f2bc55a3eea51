// FRListRC — the paper's linked list under Valois-style reference counting.
//
// Section 5: "We have not explicitly incorporated a memory management
// technique, but a possible approach is to use Valois's reference counting
// method [10, 17], which is applicable to both our linked lists and our
// skip lists, because there are no cycles among the physically deleted
// nodes."  This class implements exactly that suggestion for the list: the
// same flag/mark/backlink algorithm as FRList — the one level protocol of
// core/level_core.h — with node lifetime managed by per-node reference
// counts (the core::CountedAccess policy, core/counted_access.h, which
// documents the counting scheme and its type-stable arena) instead of
// epochs.
//
// Trade-offs vs the epoch default are quantified in experiment E9: every
// traversal hop pays an RMW pair on shared counters, but memory is bounded
// at all times, with no grace periods and no per-thread registries.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "lf/chaos/chaos.h"
#include "lf/core/counted_access.h"
#include "lf/core/level_core.h"
#include "lf/instrument/counters.h"
#include "lf/sync/finger.h"
#include "lf/sync/succ_field.h"

namespace lf {

namespace detail {

template <typename Key, typename T>
struct alignas(8) FRListRCNode {
  enum class Kind : unsigned char { kHead, kInterior, kTail };

  Kind kind = Kind::kInterior;
  Key key{};
  T value{};
  sync::SuccField<FRListRCNode> succ;
  std::atomic<FRListRCNode*> backlink{nullptr};
  std::atomic<std::uint64_t> refct{0};
  // Incarnation counter, bumped once per recycle before the node can be
  // reallocated. A finger saved as (node, stamp) names one incarnation:
  // an equal stamp on a held node proves the node was never recycled in
  // between, so its key (and backlink chain) are still the saved ones.
  std::atomic<std::uint64_t> stamp{0};
  FRListRCNode* arena_next = nullptr;  // allocation registry (teardown)
  FRListRCNode* free_next = nullptr;   // free-list link (under the lock)
};

template <typename List, typename Key, typename T, typename Compare>
using FRListRCCore =
    core::LevelCore<List, FRListRCNode<Key, T>, Key, Compare,
                    core::CountedAccess<FRListRCNode<Key, T>>,
                    core::ListSites, core::Sweep::kMarked>;

}  // namespace detail

// `Finger` (sync::FingerOn / sync::FingerOff) statically enables the
// thread-local search-hint layer. Unlike the epoch variant, validity is not
// proven with an epoch token: a saved finger is re-acquired by taking a
// count on the node and checking a per-node reuse stamp (finger_resume).
template <typename Key, typename T = Key, typename Compare = std::less<Key>,
          typename Finger = sync::FingerOn>
class FRListRC
    : private detail::FRListRCCore<FRListRC<Key, T, Compare, Finger>, Key, T,
                                   Compare> {
  using Core = detail::FRListRCCore<FRListRC, Key, T, Compare>;
  friend Core;

 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;
  using Node = detail::FRListRCNode<Key, T>;

  // Nodes waiting in the free list, and nodes ever allocated (the arena).
  using Core::arena_count;
  using Core::free_count;

 private:
  using typename Core::InsertResult;
  using typename Core::View;
  using Core::comp_;
  using Core::drop;
  using Core::hold;
  using Core::insert_loop;
  using Core::node_eq;

 public:
  FRListRC() {
    head_ = this->allocate(Node::Kind::kHead);
    tail_ = this->allocate(Node::Kind::kTail);
    head_->succ.store_unsynchronized(View{tail_, false, false});
    tail_->refct.fetch_add(1, std::memory_order_relaxed);  // head's link
  }

  FRListRC(const FRListRC&) = delete;
  FRListRC& operator=(const FRListRC&) = delete;

  // ---- dictionary operations (FRList algorithm + count discipline) -----

  bool insert(const Key& k, T value) {
    auto [prev, next] = search_entry<true>(k);
    if (node_eq(prev, k)) {
      drop(prev);
      drop(next);
      stats::tls().op_insert.inc();
      return false;
    }
    Node* node = this->allocate(Node::Kind::kInterior);
    node->key = k;
    node->value = std::move(value);
    InsertResult result;
    std::tie(prev, result) = insert_loop(node, prev, next, 1);
    drop(prev);
    // Drop the creator reference; a node that lost to a duplicate was
    // never linked, so its stored succ is uncounted.
    if (result == InsertResult::kInserted) {
      drop(node);
    } else {
      this->abandon(node);
    }
    stats::tls().op_insert.inc();
    return result == InsertResult::kInserted;
  }

  bool erase(const Key& k) {
    auto [prev, del] = search_entry<false>(k);
    const bool erased = node_eq(del, k) && this->delete_node(prev, del, 1);
    drop(prev);
    drop(del);
    stats::tls().op_erase.inc();
    return erased;
  }

  std::optional<T> find(const Key& k) const {
    auto [curr, next] = search_entry<true>(k);
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
    for_each([&](const Key&, const T&) { ++n; });
    return n;
  }

  // Visits (key, value) of every regular node in key order; weakly
  // consistent under concurrency.
  template <typename Fn>
  void for_each(Fn&& fn) const {
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

  // Quiescent-only invariant check: the count of every linked node equals
  // the number of fields referencing it (no thread refs at quiescence).
  bool validate_counts() const {
    // Expected counts: links from succ fields of list nodes + backlinks of
    // freed-but-unreachable nodes are gone at quiescence, so: each linked
    // node has exactly one predecessor link; tail also has head's initial
    // artificial link accounted via its +1.
    Node* p = head_;
    while (p->kind != Node::Kind::kTail) {
      Node* next = p->succ.load().right;
      const std::uint64_t expect = 1;  // the single incoming link
      const std::uint64_t have =
          next->refct.load(std::memory_order_acquire) & Core::kCountMask;
      if (next->kind == Node::Kind::kTail) {
        if (have < 1) return false;  // head's artificial +1 at minimum
      } else if (have != expect) {
        return false;
      }
      p = next;
    }
    return true;
  }

 private:
  // ---- Level-core hooks (core/level_core.h) -----------------------------
  static sync::SuccField<Node>& succ(Node* n, int) noexcept { return n->succ; }
  static std::atomic<Node*>& backlink(Node* n, int) noexcept {
    return n->backlink;
  }

  // Counted search from the finger cache (or the head); saves the result.
  template <bool Closed>
  std::pair<Node*, Node*> search_entry(const Key& k) const {
    auto out = this->template search<Closed>(k, finger_entry<Closed>(k), 1);
    save_finger(out.first, out.second);
    return out;
  }

  // ---- finger (search hint) layer -----------------------------------------
  //
  // A set-associative way cache (sync/finger.h): each way remembers a
  // recent search result with the bracket of keys it serves, tagged with
  // the node's reuse stamp, plus FRList's two left anchors. The cached keys
  // make the probe deref-free; they are trusted only after finger_resume's
  // counted hold finds an equal stamp, which proves the same incarnation
  // (hence the same key).

  static constexpr bool kFingerActive = Finger::kEnabled;
  using Way = sync::FingerWay<Node, Key>;
  struct FingerSlot : sync::FingerWays<Way, sync::kFingerAnchors> {
    std::uint64_t instance = 0;
  };

  // Counted start node for a top-level search: a validated way from the
  // finger cache — the bracket way containing k, else the way with the
  // largest key still left of k — or the head. The returned reference is
  // consumed by the search.
  template <bool Closed>
  Node* finger_entry(const Key& k) const {
    if constexpr (kFingerActive) {
      auto& slot = sync::tls_finger_slot<FingerSlot>(finger_id_);
      if (slot.instance == finger_id_) {
        const auto [bracket, fallback] = sync::finger_probe<Closed>(
            slot, k, comp_, [](const Way&) { return true; });
        for (const int i : {bracket, fallback}) {
          if (i < 0 || slot.way[i].node == nullptr) continue;
          if (Node* start = this->finger_resume(slot.way[i], 1)) return start;
        }
      }
      LF_CHAOS_POINT(kListFingerFallback);
      stats::tls().finger_miss.inc();
    }
    return hold(head_);
  }

  // Remember a node the caller currently holds (with its successor, for
  // the bracket) as a way of this thread's finger cache. Only raw
  // pointers, keys, and stamps are kept — no count survives the caller's
  // release — so quiescent count accounting is unaffected.
  void save_finger(Node* n, Node* succ) const {
    if constexpr (kFingerActive) {
      auto& slot = sync::tls_finger_slot<FingerSlot>(finger_id_);
      sync::finger_claim(slot, finger_id_);
      sync::finger_save(
          slot, n, succ, n->stamp.load(std::memory_order_acquire), -1, comp_,
          [](const Way&) { return true; }, chaos::Site::kListFingerReplace);
    }
  }

  Node* head_;
  Node* tail_;
  const std::uint64_t finger_id_ = sync::next_finger_instance();
};

}  // namespace lf
