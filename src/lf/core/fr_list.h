// FRList — the lock-free sorted singly-linked list of Fomitchev & Ruppert,
// "Lock-Free Linked Lists and Skip Lists", PODC 2004, Section 3.
//
// The data structure is a sorted singly-linked list between two sentinel
// nodes (head = -inf, tail = +inf). Each node carries
//
//     succ     = (right pointer, mark bit, flag bit) in one CAS-able word
//     backlink = pointer to the node's predecessor, set when it is deleted
//
// and the list is the one-level instance of the paper's flag/mark/backlink
// protocol (core/level_core.h): deletion is the three-step flag, mark,
// unlink of Figure 2, and an operation whose C&S fails because its target
// got marked recovers through backlinks instead of restarting from the
// head. Because a node is only marked while its predecessor is flagged —
// and a flagged node can never be marked — backlink chains only ever grow
// to the LEFT, which is precisely what bounds the recovery cost and yields
// the paper's amortized bound  t̂(S) = O(n(S) + c(S))  (Section 3.4).
//
// Processes help one another (HelpFlagged / HelpMarked) so that a stalled
// deleter can never block anyone: the implementation is lock-free.
//
// Linearization points (Section 3.3): successful insert at its successful
// C&S; successful delete when the node becomes marked; searches at the
// moment the SearchFrom postcondition (n1 unmarked and n1.right = n2) holds.
//
// Template parameters:
//   Key, T      key and mapped value. Both must be default-constructible
//               (sentinels value-initialize them) and T must be copyable
//               (find() returns a copy made while the node is guarded).
//   Compare     strict weak order on Key.
//   Reclaimer   memory-reclamation policy (see lf/reclaim/reclaimer.h).
//               Defaults to epoch-based reclamation, which is safe here
//               even though searches may traverse backlinks into
//               physically deleted nodes (argument in lf/reclaim/epoch.h).
//   Alloc       node allocation policy (see lf/mem/pool.h). Defaults to the
//               per-thread segment pool: nodes come out 64-byte aligned in
//               whole cache lines (no false sharing between neighbours) and
//               a freed node is recycled only after the reclaimer's grace
//               period, so reuse is ABA-safe. mem::HeapAlloc restores the
//               global allocator for the ablation benches.
//
// Instrumentation: every C&S, backlink traversal and search pointer update
// is tallied in lf::stats — the exact step set the paper's amortized
// analysis counts (Section 3.4) — so benchmarks can reproduce the paper's
// cost claims in its own units.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lf/chaos/chaos.h"
#include "lf/core/level_core.h"
#include "lf/instrument/counters.h"
#include "lf/mem/pool.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/leaky.h"
#include "lf/reclaim/reclaimer.h"
#include "lf/sync/backoff.h"
#include "lf/sync/finger.h"
#include "lf/sync/succ_field.h"

namespace lf {

namespace detail {

// FRList's node. Public (as FRList::Node) so that white-box tests can
// inspect structure; user code should treat nodes as opaque.
template <typename Key, typename T, typename Alloc>
struct alignas(8) FRListNode {
  enum class Kind : unsigned char { kHead, kInterior, kTail };

  Kind kind;
  Key key;    // value-initialized for sentinels
  T value;    // value-initialized for sentinels
  sync::SuccField<FRListNode> succ;
  std::atomic<FRListNode*> backlink{nullptr};

  FRListNode(Kind k, Key key_arg, T value_arg)
      : kind(k), key(std::move(key_arg)), value(std::move(value_arg)) {}

  // Route every `new Node` / `delete node` — including the reclaimer's
  // deferred deletes — through the allocation policy. The sized overload
  // is all that's needed; the compiler always knows the node size here.
  static void* operator new(std::size_t bytes) {
    return Alloc::allocate(bytes);
  }
  static void operator delete(void* p, std::size_t bytes) {
    Alloc::deallocate(p, bytes);
  }
};

// The level protocol as FRList runs it: raw pointers under the reclaimer's
// guard, the list's chaos sites, and the paper's SearchFrom sweep.
template <typename List, typename Key, typename T, typename Compare,
          typename Alloc>
using FRListCore =
    core::LevelCore<List, FRListNode<Key, T, Alloc>, Key, Compare,
                    core::RawAccess<FRListNode<Key, T, Alloc>>,
                    core::ListSites, core::Sweep::kMarked>;

}  // namespace detail

// The extra template parameters beyond the paper's algorithm:
//   Finger      sync::FingerOn (default) caches each thread's last search
//               result per structure and starts the next search there when
//               the reclaimer policy can re-validate it (sync/finger.h).
//               sync::FingerOff compiles the layer out entirely.
template <typename Key, typename T = Key, typename Compare = std::less<Key>,
          typename Reclaimer = reclaim::EpochReclaimer,
          typename Alloc = mem::PoolAlloc, typename Finger = sync::FingerOn>
class FRList
    : private detail::FRListCore<
          FRList<Key, T, Compare, Reclaimer, Alloc, Finger>, Key, T, Compare,
          Alloc> {
  using Core = detail::FRListCore<FRList, Key, T, Compare, Alloc>;
  friend Core;

 public:
  using key_type = Key;
  using mapped_type = T;
  using key_compare = Compare;
  using Node = detail::FRListNode<Key, T, Alloc>;

 private:
  using typename Core::FlagStatus;
  using typename Core::InsertResult;
  using typename Core::View;
  using Core::comp_;
  using Core::help_flagged;
  using Core::insert_loop;
  using Core::insert_step;
  using Core::node_eq;
  using Core::try_flag;

 public:
  FRList() : FRList(Compare{}, Reclaimer{}) {}
  explicit FRList(Reclaimer reclaimer) : FRList(Compare{}, std::move(reclaimer)) {}
  FRList(Compare comp, Reclaimer reclaimer)
      : Core(std::move(comp)), reclaimer_(std::move(reclaimer)) {
    head_ = new Node(Node::Kind::kHead, Key{}, T{});
    tail_ = new Node(Node::Kind::kTail, Key{}, T{});
    head_->succ.store_unsynchronized(View{tail_, false, false});
    tail_->succ.store_unsynchronized(View{nullptr, false, false});
  }

  // Destruction requires quiescence (no concurrent operations), like every
  // concurrent container's destructor. Frees all nodes still linked;
  // physically deleted nodes were already handed to the reclaimer.
  ~FRList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->succ.load().right;
      delete n;
      n = next;
    }
  }

  FRList(const FRList&) = delete;
  FRList& operator=(const FRList&) = delete;

  // ---- Dictionary operations (paper Figures 3-5) ----------------------

  // insert_checked distinguishes "key already present" from "allocation
  // failed": a node allocation that throws std::bad_alloc is absorbed
  // before anything is linked, so the structure is untouched.
  enum class InsertStatus { kInserted, kDuplicate, kNoMemory };

  // INSERT(k, e): true on success, false if the key is already present.
  bool insert(const Key& k, T value) {
    return insert_checked(k, std::move(value)) == InsertStatus::kInserted;
  }

  InsertStatus insert_checked(const Key& k, T value) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [prev, next] = search_entry<true>(k);
    if (node_eq(prev, k)) {
      stats::tls().op_insert.inc();
      return InsertStatus::kDuplicate;  // DUPLICATE_KEY
    }
    Node* node = nullptr;
    try {
      node = new Node(Node::Kind::kInterior, k, std::move(value));
    } catch (const std::bad_alloc&) {
      stats::tls().op_insert.inc();
      return InsertStatus::kNoMemory;  // nothing linked, nothing leaked
    }
    const bool inserted = link(node, prev, next);
    stats::tls().op_insert.inc();
    return inserted ? InsertStatus::kInserted : InsertStatus::kDuplicate;
  }

  // DELETE(k): true if this operation deleted the key, false otherwise
  // (absent, or a concurrent deletion of the same node wins).
  bool erase(const Key& k) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    // SearchFrom(k - eps): prev.key < k <= del.key, per Delete line 1.
    auto [prev, del] = search_entry<false>(k);
    const bool erased = node_eq(del, k) && this->delete_node(prev, del, 1);
    stats::tls().op_erase.inc();
    return erased;
  }

  // SEARCH(k): copy of the mapped value, or nullopt.
  std::optional<T> find(const Key& k) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [curr, next] = search_entry<true>(k);
    (void)next;
    std::optional<T> out;
    if (node_eq(curr, k)) out.emplace(curr->value);
    stats::tls().op_search.inc();
    return out;
  }

  bool contains(const Key& k) const {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [curr, next] = search_entry<true>(k);
    (void)next;
    stats::tls().op_search.inc();
    return node_eq(curr, k);
  }

  // ---- Snapshot / diagnostic helpers -----------------------------------

  // Number of unmarked (regular) interior nodes. O(n); a linearizable size
  // is impossible to maintain cheaply on a lock-free list, so under
  // concurrency this is a point-in-traversal approximation.
  std::size_t size() const {
    std::size_t n = 0;
    for_each([&](const Key&, const T&) { ++n; });
    return n;
  }

  bool empty() const { return size() == 0; }

  // Visits (key, value) of every regular node in key order. Weakly
  // consistent under concurrency (like every lock-free iteration).
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

  // ---- Invariant validation (tests; requires quiescence) ---------------

  struct ValidationReport {
    bool ok = true;
    std::size_t node_count = 0;
    std::string error;
  };

  // Checks the paper's INV 1-5 at a quiescent point (LevelCore's
  // validate_level): the list is strictly sorted from head to tail, and no
  // linked node is marked or flagged.
  ValidationReport validate() const {
    ValidationReport rep;
    if (const char* error = this->validate_level(
            head_, 1, rep.node_count, [](const Node*) { return nullptr; })) {
      rep.ok = false;
      rep.error = error;
    }
    return rep;
  }

  // ---- Two-phase insertion hooks (benchmark adversary; Section 3.1) ----
  //
  // The paper's lower-bound execution for Harris's list requires the
  // scheduler to stop inserters between "located the insertion position"
  // and "performed the C&S". These hooks expose exactly that seam so the
  // adversary driver can realize the schedule deterministically. Use with
  // LeakyReclaimer (no guard needs to span the phases) or under external
  // quiescence between phases.
  struct InsertCursor {
    Key key{};
    Node* prev = nullptr;
    Node* next = nullptr;
    Node* node = nullptr;  // allocated, unlinked
  };

  // Phase 1: the initial SearchFrom + duplicate check + node allocation
  // (Insert lines 1-4). Returns false (and allocates nothing) on duplicate.
  bool insert_locate(const Key& k, T value, InsertCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [prev, next] = this->template search<true>(k, head_, 1);
    if (node_eq(prev, k)) return false;
    cur.key = k;
    cur.prev = prev;
    cur.next = next;
    cur.node = new Node(Node::Kind::kInterior, k, std::move(value));
    return true;
  }

  // Phase 2: the Insert retry loop (lines 5-22), including recovery via
  // backlinks when the located predecessor got marked in between.
  bool insert_complete(InsertCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    const bool inserted = link(cur.node, cur.prev, cur.next);
    stats::tls().op_insert.inc();
    cur.node = nullptr;
    return inserted;
  }

  // Phase 2 alternative: exactly ONE iteration of the Insert retry loop —
  // one C&S attempt and, on failure, one recovery (help / backlink walk /
  // SearchFrom). The adversary interposes a deletion between iterations,
  // which is precisely the schedule of the paper's Section 3.1 lower bound.
  enum class TryResult { kInserted, kRetry, kDuplicate };

  TryResult insert_try_once(InsertCursor& cur) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    sync::Backoff backoff;
    const InsertResult r =
        insert_step(cur.node, cur.prev, cur.next, 1, backoff);
    if (r == InsertResult::kRetry) return TryResult::kRetry;
    if (r == InsertResult::kDuplicate) delete cur.node;
    cur.node = nullptr;
    stats::tls().op_insert.inc();
    return r == InsertResult::kInserted ? TryResult::kInserted
                                        : TryResult::kDuplicate;
  }

  // ---- Stalled-deleter hooks (tests; Section 3.3 helping paths) --------
  //
  // A lock-free algorithm must tolerate a deleter that performs the FIRST
  // deletion step (flagging the predecessor) and then stops forever — any
  // other operation that runs into the flag must help the deletion to
  // completion. These hooks create exactly that state so tests can verify
  // each helping path deterministically. erase_begin performs Delete lines
  // 1-4 (search + TryFlag) and returns WITHOUT calling HelpFlagged;
  // erase_finish resumes the stalled operation (idempotent: helpers may
  // have completed it already).
  struct StalledErase {
    Node* prev = nullptr;
    Node* del = nullptr;
    bool flagged = false;  // whether THIS operation placed the flag
  };

  bool erase_begin(const Key& k, StalledErase& out) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    auto [prev, del] = this->template search<false>(k, head_, 1);
    if (!node_eq(del, k)) return false;
    auto [flag_prev, status, flagged] = try_flag(prev, del, 1);
    out.prev = status == FlagStatus::kIn ? flag_prev : nullptr;
    out.del = del;
    out.flagged = flagged;
    return out.prev != nullptr;
  }

  // Completes the stalled deletion; returns whether the stalled operation
  // reports success (it placed the flag, so the deletion is "its").
  bool erase_finish(StalledErase& st) {
    [[maybe_unused]] auto guard = reclaimer_.guard();
    if (st.prev != nullptr) help_flagged(st.prev, st.del, 1);
    stats::tls().op_erase.inc();
    return st.flagged;
  }

  // Direct access for white-box tests and the adversary driver.
  Node* head() const noexcept { return head_; }
  Node* tail() const noexcept { return tail_; }
  Reclaimer& reclaimer() noexcept { return reclaimer_; }

 private:
  // ---- Level-core hooks (core/level_core.h) -----------------------------
  static sync::SuccField<Node>& succ(Node* n, int) noexcept { return n->succ; }
  static std::atomic<Node*>& backlink(Node* n, int) noexcept {
    return n->backlink;
  }
  // The thread whose C&S unlinks a node owns its retirement.
  void on_unlink(Node* del) const { reclaimer_.retire(del); }

  // The Insert retry loop from a located (prev, next); a node that turns
  // out to be a duplicate was never published, so plain delete is safe.
  bool link(Node* node, Node* prev, Node* next) {
    if (insert_loop(node, prev, next, 1).second == InsertResult::kInserted)
      return true;
    delete node;
    return false;
  }

  // ---- Finger (search hint) layer — see sync/finger.h and DESIGN.md §10 --
  //
  // Each thread remembers, per list instance, a small set-associative cache
  // of recent search results: sync::kFingerCacheWays ways, each holding the
  // n1 node a search returned together with the bracket of keys it serves
  // ([n1.key, n2.key]) and the reclaimer's validity token. The next top-level search
  // probes for the way whose bracket contains the new key — a hot-set
  // repeat lands in its own way even when the hot keys are positionally
  // scattered — falling back to the way with the closest key still left of
  // k (any unmarked node with key < k is a valid start), and to the head
  // when no way validates (sync::finger_probe). A finger that was marked in
  // the meantime is recovered through its backlink chain — the exact
  // recovery a failed C&S performs. Replacement is least-frequently-hit
  // with aging, stale ways first (sync::finger_save); a bracket hit
  // refreshes its own way in place and bumps its frequency counter. Two
  // left anchors keep the lowest recent results as fallback starts, so a
  // key window left of every way is not walked from the head
  // (sync::finger_anchor_save). Only the public entry points use
  // fingers; the two-phase adversary hooks (insert_locate / insert_try_once
  // / erase_begin) keep their head starts so the paper's lower-bound
  // schedules stay reproducible.

  using FingerPol = sync::FingerPolicy<Reclaimer>;
  static constexpr bool kFingerActive =
      Finger::kEnabled && FingerPol::kSupported;

  // A way's tag is the reclaimer token it was saved under; a validating
  // token proves the node unreclaimed, so its cached keys are still its.
  // The left anchors (sync::kFingerAnchors) ride along under the same
  // tokens.
  using Way = sync::FingerWay<Node, Key>;
  struct FingerSlot : sync::FingerWays<Way, sync::kFingerAnchors> {
    std::uint64_t instance = 0;
  };

  // The head-or-finger search every public operation starts with.
  template <bool Closed>
  std::pair<Node*, Node*> search_entry(const Key& k) const {
    if constexpr (kFingerActive) {
      auto& slot = sync::tls_finger_slot<FingerSlot>(finger_id_);
      const std::uint64_t token = FingerPol::token(reclaimer_);
      const auto [start, bracket] = finger_start<Closed>(k, slot, token);
      auto out =
          this->template search<Closed>(k, start ? start : head_, 1);
      save_finger(slot, token, out, bracket);
      return out;
    } else {
      return this->template search<Closed>(k, head_, 1);
    }
  }

  // Save this search's result into the way cache, under the token of the
  // CURRENT pin (everything reachable in this operation stays
  // dereferenceable while that token revalidates).
  void save_finger(FingerSlot& slot, std::uint64_t token,
                   const std::pair<Node*, Node*>& out, int bracket) const {
    sync::finger_claim(slot, finger_id_);
    sync::finger_save(
        slot, out.first, out.second, token, bracket, comp_,
        [token](const Way& e) { return e.tag == token; },
        chaos::Site::kListFingerReplace);
  }

  // Returns {start, way}: a validated start node with key < k (Closed:
  // key <= k) or nullptr for a head start, plus the index of the bracket
  // way that served it (-1 when the start came from the key-side fallback
  // or the head). Counts one hit or miss per search; backlink hops taken
  // here are charged as regular recovery steps.
  template <bool Closed>
  std::pair<Node*, int> finger_start(const Key& k, FingerSlot& slot,
                                     std::uint64_t token) const {
    auto& c = stats::tls();
    if (slot.instance == finger_id_) {
      const auto [bracket, fallback] = sync::finger_probe<Closed>(
          slot, k, comp_, [token](const Way& e) { return e.tag == token; });
      for (const int i : {bracket, fallback}) {
        if (i < 0 || slot.way[i].node == nullptr) continue;
        // The probe's token match proves the way's node unreclaimed.
        if (Node* start = this->finger_resume(slot.way[i], 1))
          return {start, i == bracket ? i : -1};
      }
    }
    LF_CHAOS_POINT(kListFingerFallback);
    c.finger_miss.inc();
    return {nullptr, -1};
  }

  mutable Reclaimer reclaimer_;
  Node* head_;
  Node* tail_;
  // Never-reused id keying this instance's thread-local finger slots.
  const std::uint64_t finger_id_ = sync::next_finger_instance();

  static_assert(reclaim::reclaimer_for<Reclaimer, Node>);
};

}  // namespace lf
