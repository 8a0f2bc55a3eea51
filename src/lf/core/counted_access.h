// CountedAccess — Valois-style reference counting for the FR structures:
// the node-access policy of FRListRC and FRSkipListRC (core/level_core.h),
// with the type-stable node arena it needs.
//
// Section 5 of the paper: "a possible approach is to use Valois's reference
// counting method [10, 17], which is applicable to both our linked lists
// and our skip lists, because there are no cycles among the physically
// deleted nodes." This is that method (Valois PODC'95, with the Michael &
// Scott TR-599 corrections):
//
//   * A node's count = (# fields storing a pointer to it) + (# live thread
//     references) + (in-flight SafeRead ghost pairs). Fields are succ and
//     backlink, plus a skip-list node's immutable down and tower_root.
//   * SafeRead (read_succ / read_backlink): read the pointer, increment its
//     count, re-validate the field still holds it (otherwise undo and
//     retry). Because nodes live in a TYPE-STABLE arena (recycled through a
//     free list, never returned to the OS while the structure lives), the
//     increment may touch a recycled node; the validation step rejects it
//     and the undo re-balances.
//   * Link transitions adjust counts at their C&S (the level core calls the
//     hooks below):
//       - insert C&S (prev: next -> node): +1 node, taken just before the
//         C&S and rolled back if it fails. The new node->next link
//         inherits the count of the replaced link.
//       - physical-deletion C&S (prev: del -> next): +1 next before the
//         C&S, -1 del after it (on_unlink).
//       - backlink C&S (null -> prev): +1 prev; set-once, losers roll back.
//       - mark/flag C&S: pointer unchanged, no count traffic.
//   * Release to zero recycles the node: its stored targets are released
//     (no cycles among deleted nodes, so this terminates). An IN-FREELIST
//     bit in the count word — set atomically with the dying 1 -> 0
//     transition — keeps late SafeRead ghost pairs on recycled nodes from
//     double-freeing, and lets the finger layer reject a dead hint without
//     any field to re-validate (finger_try_hold).
//
// Trade-offs vs the epoch default (quantified in experiment E9): every
// traversal hop pays an RMW pair on shared counters, the known cost that
// made later literature prefer epochs/hazard pointers — but memory is
// bounded at all times (nodes are reusable the instant they are
// unreachable), with no grace periods and no per-thread registries.
//
// The free list itself is mutex-protected (Valois used IBM tag-versioned
// freelists, which need a double-width CAS); the lock sits only on the
// allocate/recycle path, never on the traversal/recovery paths this
// repository studies. Documented in DESIGN.md as part of the substitution.
//
// Node requirements: kind (Kind::kHead / kInterior / kTail), succ,
// backlink, refct and stamp (std::atomic<std::uint64_t>), arena_next and
// free_next; optional immutable `down` and `tower_root` links are released
// with the node.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "lf/instrument/counters.h"
#include "lf/sync/succ_field.h"

namespace lf::core {

template <typename Node>
class CountedAccess {
 public:
  CountedAccess() = default;

  // Quiescent destruction: every node ever allocated is in the arena
  // registry; free them wholesale regardless of count state.
  ~CountedAccess() {
    Node* n = arena_head_;
    while (n != nullptr) {
      Node* next = n->arena_next;
      delete n;
      n = next;
    }
  }

  CountedAccess(const CountedAccess&) = delete;
  CountedAccess& operator=(const CountedAccess&) = delete;

  // Nodes currently waiting in the free list (recycled, reusable).
  std::size_t free_count() const {
    std::lock_guard lock(free_mu_);
    return free_count_;
  }

  // Total nodes ever allocated from the OS (arena size).
  std::size_t arena_count() const {
    std::lock_guard lock(free_mu_);
    return arena_count_;
  }

 protected:
  using Succ = sync::SuccField<Node>;
  using View = sync::SuccView<Node>;

  // Count word layout: bit 63 = "node is in the free list"; low bits are
  // the reference count proper.
  static constexpr std::uint64_t kFreeBit = 1ULL << 63;
  static constexpr std::uint64_t kCountMask = kFreeBit - 1;

  // ---- the access policy (core/level_core.h) ------------------------------

  // Take an extra thread reference on a node we already safely hold (or a
  // sentinel, which is never freed).
  Node* hold(Node* p) const {
    p->refct.fetch_add(1, std::memory_order_acq_rel);
    return p;
  }

  void on_unlink(Node* del) const { drop(del); }  // the prev->del link

  // Valois SafeRead on a successor field: a counted reference to the
  // field's current target.
  Node* read_succ(const Succ& field) const {
    for (;;) {
      Node* p = field.load().right;
      p->refct.fetch_add(1, std::memory_order_acq_rel);
      if (field.load().right == p) return p;
      drop(p);  // field moved on: undo the ghost increment
    }
  }

  Node* read_backlink(const std::atomic<Node*>& field) const {
    for (;;) {
      Node* p = field.load(std::memory_order_acquire);
      if (p == nullptr) return nullptr;
      p->refct.fetch_add(1, std::memory_order_acq_rel);
      if (field.load(std::memory_order_acquire) == p) return p;
      drop(p);
    }
  }

  // Set-once backlink: pre-count prev, and roll back if another helper's
  // identical value won.
  void set_backlink(std::atomic<Node*>& field, Node* prev) const {
    if (field.load(std::memory_order_acquire) != nullptr) return;
    hold(prev);
    Node* expected = nullptr;
    if (!field.compare_exchange_strong(expected, prev,
                                       std::memory_order_acq_rel))
      drop(prev);
  }

  // The successor a flagged field announces, as a counted reference, or
  // nullptr when the flag no longer stands for it. Re-read: a view from a
  // failed C&S is not a counted reference.
  Node* flagged_successor(Succ& field, View) const {
    if (!field.load().flag) return nullptr;
    Node* del = read_succ(field);
    if (field.load() == View{del, false, true}) return del;
    drop(del);
    return nullptr;
  }

  // Drop one reference; the releaser that takes the count to zero frees
  // the node's outgoing links and recycles it. Iterative: chained frees
  // (e.g. a run of deleted nodes) are processed with an explicit stack.
  void drop(Node* p) const {
    std::vector<Node*> pending{p};
    while (!pending.empty()) {
      Node* n = pending.back();
      pending.pop_back();
      if (n == nullptr) continue;
      // The decrement is a C&S loop (not fetch_sub) so the dying transition
      // of an interior node — count 1 -> 0 — sets the IN-FREELIST bit in
      // the SAME atomic step. A count word of zero-without-the-bit must
      // never be observable: a SafeRead ghost increment could revive it to
      // a plausible nonzero count, and finger_try_hold (which has no field
      // to re-validate against, unlike SafeRead) would mistake the dying
      // node for a live one.
      std::uint64_t old = n->refct.load(std::memory_order_relaxed);
      bool dying;
      for (;;) {
        assert((old & kCountMask) != 0 && "refcount underflow");
        dying = old == 1 && n->kind == Node::Kind::kInterior;
        const std::uint64_t desired = dying ? kFreeBit : old - 1;
        if (n->refct.compare_exchange_weak(old, desired,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
          break;
        }
      }
      if (!dying) continue;  // still referenced, sentinel, or in freelist
      // Count hit zero outside the free list: this releaser owns the node.
      pending.push_back(n->succ.load().right);
      pending.push_back(n->backlink.load(std::memory_order_acquire));
      if constexpr (requires { n->down; }) {
        pending.push_back(n->down);
        if (n->tower_root != n) pending.push_back(n->tower_root);
      }
      recycle(n);
    }
  }

  // Drop a never-linked node: its stored succ was never counted.
  void abandon(Node* node) const {
    node->succ.store_unsynchronized(View{nullptr, false, false});
    drop(node);
  }

  // Try to re-acquire a counted reference on a saved finger. Returns true
  // holding one new reference on `n`; false holding nothing.
  //
  // Soundness: the fetch_add is an RMW, so it observes the latest count
  // word. kFreeBit clear and count nonzero therefore prove the node is not
  // (and is not becoming) freelisted — the dying transition in drop() sets
  // the bit atomically — and our increment now blocks any future dying
  // transition, so the node stays live while held. The stamp is read after
  // that RMW: if the node was recycled and re-allocated since the save, the
  // hold's RMW reads allocate()'s release-RMWs on the same word, which
  // happen after recycle()'s stamp bump, so the mismatch is visible and the
  // stale finger is rejected. An equal stamp proves zero recycles since the
  // save: same incarnation, same key, backlink chain intact.
  bool finger_try_hold(Node* n, std::uint64_t stamp) const {
    const std::uint64_t old = n->refct.fetch_add(1, std::memory_order_acq_rel);
    if ((old & kFreeBit) != 0 || (old & kCountMask) == 0) {
      // Freelisted when we added. Undo through drop(): while the node is
      // still freelisted it only decrements (a word with kFreeBit never
      // equals 1), but if allocate() handed the node out meanwhile our
      // increment is a real count, and when the new owner has already let
      // go of its own, ours is the last one — a raw decrement would leave
      // the node at zero outside the free list, leaked with its links.
      drop(n);
      return false;
    }
    if (n->stamp.load(std::memory_order_acquire) != stamp) {
      drop(n);  // live node, but a later incarnation
      return false;
    }
    return true;
  }

  // A node holding the creator reference, with cleared links: recycled
  // from the free list when one is waiting, else new. The caller fills in
  // the payload.
  Node* allocate(typename Node::Kind kind) const {
    Node* n = nullptr;
    {
      std::lock_guard lock(free_mu_);
      if (free_head_ != nullptr) {
        n = free_head_;
        free_head_ = n->free_next;
        --free_count_;
      }
    }
    if (n != nullptr) {
      // Creator reference; fetch_add (not store) so in-flight ghost pairs
      // on the recycled node stay balanced.
      n->refct.fetch_add(1, std::memory_order_acq_rel);
      n->refct.fetch_and(~kFreeBit, std::memory_order_acq_rel);
      // Only interior nodes die, so `kind` is left as it is: a stale
      // holder's drop() may be reading it right now.
      assert(kind == Node::Kind::kInterior);
      n->succ.store_unsynchronized(View{nullptr, false, false});
      n->backlink.store(nullptr, std::memory_order_relaxed);
      n->free_next = nullptr;
      return n;
    }
    n = new Node;
    n->kind = kind;
    n->refct.store(1, std::memory_order_relaxed);  // creator reference
    std::lock_guard lock(free_mu_);
    n->arena_next = arena_head_;
    arena_head_ = n;
    ++arena_count_;
    return n;
  }

 private:
  void recycle(Node* n) const {
    stats::tls().node_retired.inc();
    stats::tls().node_freed.inc();  // immediately reusable: freed now
    // kFreeBit was set by the dying transition in drop(). Bump the reuse
    // stamp before the node enters the free list (and so before allocate()
    // can hand it out): any finger saved on this incarnation can then never
    // validate again — finger_try_hold's refct RMW synchronizes with
    // allocate()'s, making this increment visible to its stamp check.
    n->stamp.fetch_add(1, std::memory_order_release);
    std::lock_guard lock(free_mu_);
    n->free_next = free_head_;
    free_head_ = n;
    ++free_count_;
  }

  mutable std::mutex free_mu_;
  mutable Node* free_head_ = nullptr;
  mutable Node* arena_head_ = nullptr;
  mutable std::size_t free_count_ = 0;
  mutable std::size_t arena_count_ = 0;
};

}  // namespace lf::core
