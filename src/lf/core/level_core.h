// LevelCore — the flag/mark/backlink protocol of Fomitchev & Ruppert, PODC
// 2004, written once for every FR structure.
//
// The paper builds its skip list from its linked list: each level runs the
// Figure 3-5 routines (SearchFrom, HelpMarked, HelpFlagged, TryMark,
// TryFlag, the Insert retry loop). This header is that level protocol.
// FRList and FRListRC are its one-level instances; FRSkipList and
// FRSkipListRC run it on every level of their towers. A fix or a chaos site
// in a protocol step is written here, once.
//
// Deletion of node B with predecessor A is the three-step protocol of
// Figure 2:
//
//     1. FLAG      C&S A.succ (B,0,0) -> (B,0,1).  A's successor field is
//                  now frozen: it cannot be redirected or marked until the
//                  flag is removed, so B's backlink — about to be set to
//                  A — will never point at a marked node.
//     2. MARK      set B.backlink = A, then C&S B.succ (C,0,0) -> (C,1,0).
//                  B is now logically deleted; a marked successor field
//                  never changes again.
//     3. UNLINK    C&S A.succ (B,0,1) -> (C,0,0): physically deletes B and
//                  removes A's flag in the same step.
//
// An operation that fails a C&S because its target node got marked does
// not restart from the head; it walks backlinks left to the nearest
// unmarked node and resumes there (walk_backlinks).
//
// The core is a CRTP base parameterized by
//
//   Access   how nodes are held. RawAccess<Node>: plain pointers, kept
//            alive by the structure's reclaimer guard (FRList, FRSkipList).
//            CountedAccess<Node> (core/counted_access.h): Valois reference
//            counts — every held pointer is a counted reference, the link
//            a C&S publishes is counted before the C&S, and the backlink is
//            a set-once C&S (FRListRC, FRSkipListRC). Every routine below
//            states which references it consumes; under RawAccess those
//            hand-offs compile to nothing.
//   Sites    the structure's chaos-site family (ListSites or SkipSites).
//   kSweep   what a search does with the deleted nodes it meets:
//            kMarked is the paper's SearchFrom (help nodes that are already
//            marked, Figure 3); kSuperfluous is Section 4's SearchRight (run
//            all three deletion steps on every tower whose root is marked).
//
// and the Derived structure supplies the level lanes and two hooks (the
// skip lists' build_tower needs four more, listed there):
//
//   static Succ& succ(Node*, int v)            successor field on level v
//   static std::atomic<Node*>& backlink(Node*, int v)
//   void on_unlink(Node*) const                after this thread's unlink
//                                              C&S (retire, drop a tower
//                                              reference, or drop the link
//                                              count — CountedAccess's
//                                              default)
//   bool superfluous(Node*) const              kSuperfluous only: is the
//                                              tower's root marked?
//
// The level v is an argument of every routine; the lists pass 1 and their
// lanes ignore it.
//
// Instrumentation: every C&S, backlink hop and search pointer update is
// tallied in lf::stats — the exact step set of the paper's amortized
// analysis (Section 3.4).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>

#include "lf/chaos/chaos.h"
#include "lf/core/node_ops.h"
#include "lf/instrument/counters.h"
#include "lf/sync/backoff.h"
#include "lf/sync/finger.h"
#include "lf/sync/succ_field.h"
#include "lf/util/prefetch.h"

namespace lf::core {

// Chaos-site families: the injection sites one structure's protocol steps
// report (chaos/chaos.h).
struct ListSites {
  static constexpr auto kSearchStep = chaos::Site::kListSearchStep;
  static constexpr auto kInsertCas = chaos::Site::kListInsertCas;
  static constexpr auto kFlagCas = chaos::Site::kListFlagCas;
  static constexpr auto kMarkCas = chaos::Site::kListMarkCas;
  static constexpr auto kUnlinkCas = chaos::Site::kListUnlinkCas;
  static constexpr auto kBacklinkStep = chaos::Site::kListBacklinkStep;
  static constexpr auto kHelpFlagged = chaos::Site::kListHelpFlagged;
  static constexpr auto kHelpMarked = chaos::Site::kListHelpMarked;
  static constexpr auto kFingerValidate = chaos::Site::kListFingerValidate;
};

struct SkipSites {
  static constexpr auto kSearchStep = chaos::Site::kSkipSearchStep;
  static constexpr auto kInsertCas = chaos::Site::kSkipInsertCas;
  static constexpr auto kFlagCas = chaos::Site::kSkipFlagCas;
  static constexpr auto kMarkCas = chaos::Site::kSkipMarkCas;
  static constexpr auto kUnlinkCas = chaos::Site::kSkipUnlinkCas;
  static constexpr auto kBacklinkStep = chaos::Site::kSkipBacklinkStep;
  static constexpr auto kHelpFlagged = chaos::Site::kSkipHelpFlagged;
  static constexpr auto kHelpMarked = chaos::Site::kSkipHelpMarked;
  static constexpr auto kFingerValidate = chaos::Site::kSkipFingerValidate;
  static constexpr auto kTowerBuild = chaos::Site::kSkipTowerBuild;
};

enum class Sweep { kMarked, kSuperfluous };

// Node access under a reclaimer guard: every node reached in an operation
// stays dereferenceable until the guard is dropped, so holding, dropping
// and link counting are no-ops and a field read is one load.
template <typename Node>
struct RawAccess {
  using Succ = sync::SuccField<Node>;

  static Node* hold(Node* n) noexcept { return n; }
  static void drop(Node*) noexcept {}
  static Node* read_succ(const Succ& f) noexcept { return f.load().right; }
  static Node* read_backlink(const std::atomic<Node*>& b) noexcept {
    return b.load(std::memory_order_acquire);
  }
  // All helpers compute the same value, so the store is idempotent.
  static void set_backlink(std::atomic<Node*>& b, Node* prev) noexcept {
    b.store(prev, std::memory_order_release);
  }
  // The node a flagged successor field announces, as `seen` reported it.
  static Node* flagged_successor(Succ&, sync::SuccView<Node> seen) noexcept {
    return seen.right;
  }
  // A cached finger's proof of life is its reclaimer token, which the
  // finger probe already matched: nothing left to check.
  static bool finger_try_hold(Node*, std::uint64_t) noexcept { return true; }
};

template <typename Derived, typename Node, typename Key, typename Compare,
          typename Access, typename Sites, Sweep kSweep>
class LevelCore : protected Access, protected KeyOrder<Compare> {
 protected:
  using Succ = sync::SuccField<Node>;
  using View = sync::SuccView<Node>;
  using Kind = typename Node::Kind;
  using Order = KeyOrder<Compare>;
  using Order::comp_;
  using Order::node_eq;
  using Order::node_le;
  using Order::node_lt;

  enum class FlagStatus { kIn, kDeleted };
  enum class InsertResult { kInserted, kRetry, kDuplicate };

  LevelCore() = default;
  explicit LevelCore(Compare comp) : Order(std::move(comp)) {}

  // ---- SEARCHFROM (Figure 3) / SEARCHRIGHT (Section 4) -------------------
  //
  // Finds consecutive nodes n1, n2 on level v with n1.right == n2 at some
  // time during the call and n1.key <= k < n2.key (Closed = true), or
  // n1.key < k <= n2.key (Closed = false; the paper's SearchFrom(k - eps)).
  // Consumes the reference on curr; returns references on both results.
  //
  // kMarked physically deletes the logically deleted nodes it meets by
  // helping (Figure 3, line 5). kSuperfluous is Section 4's addition:
  // "SearchRight deletes the superfluous nodes along its way, performing
  // all three deletion steps if necessary, whereas SearchFrom physically
  // deletes only those nodes that are already logically deleted."
  template <bool Closed>
  std::pair<Node*, Node*> search(const Key& k, Node* curr, int v) const {
    auto& c = stats::tls();
    auto advances = [&](const Node* n) {
      return Closed ? node_le(n, k) : node_lt(n, k);
    };
    Node* next = this->read_succ(Derived::succ(curr, v));
    LF_PREFETCH(next);
    for (;;) {
      if constexpr (kSweep == Sweep::kMarked) {
        if (!advances(next)) break;
        // Ensure that either next is unmarked, or both curr and next are
        // marked and curr was marked earlier (paper lines 3-6).
        for (;;) {
          if (!Derived::succ(next, v).load().mark) break;
          const View curr_succ = Derived::succ(curr, v).load();
          if (curr_succ.mark && curr_succ.right == next) break;
          if (curr_succ.right == next) help_marked(curr, next, v);
          this->drop(next);
          next = this->read_succ(Derived::succ(curr, v));
          LF_PREFETCH(next);
          c.next_update.inc();  // paper line 6
        }
      } else {
        // Delete every superfluous tower on the search path. The trigger
        // is key <= k in BOTH search modes: a strict (k - eps) search never
        // steps INTO a node with key == k, but the erase cleanup descends
        // with exactly that key and must still remove the tower's upper
        // levels, and removal never moves curr rightward, so the
        // postcondition of either mode is preserved.
        while (next->kind == Kind::kInterior && node_le(next, k) &&
               self().superfluous(next)) {
          FlagStatus status;
          std::tie(curr, status, std::ignore) = try_flag(curr, next, v);
          if (status == FlagStatus::kIn) help_flagged(curr, next, v);
          this->drop(next);
          next = this->read_succ(Derived::succ(curr, v));
          LF_PREFETCH(next);
          c.next_update.inc();
        }
      }
      if (!advances(next)) break;
      chaos::point_at(Sites::kSearchStep);
      this->drop(curr);
      curr = next;
      c.curr_update.inc();  // paper line 8
      // Start the next hop's line fill while this node's key compares run —
      // the dependent-load chain is the dominant stall (util/prefetch.h).
      next = this->read_succ(Derived::succ(curr, v));
      LF_PREFETCH(next);
    }
    return {curr, next};
  }

  // ---- HELPMARKED (Figure 3) ---------------------------------------------
  //
  // Physically deletes the marked node del (the successor of the flagged
  // node prev) and removes prev's flag, in one C&S. The thread whose C&S
  // performs the unlink runs the structure's on_unlink hook for del.
  void help_marked(Node* prev, Node* del, int v) const {
    chaos::point_at(Sites::kHelpMarked);
    stats::tls().help_marked.inc();
    Node* next = this->read_succ(Derived::succ(del, v));
    this->hold(next);  // count the would-be prev->next link
    const View result =
        chaos_cas(Sites::kUnlinkCas, Derived::succ(prev, v),
                  View{del, false, true}, View{next, false, false});
    if (result == View{del, false, true}) {
      stats::tls().pdelete_cas.inc();
      self().on_unlink(del);
    } else {
      this->drop(next);  // roll the link count back
    }
    this->drop(next);
  }

  // ---- HELPFLAGGED (Figure 4) --------------------------------------------
  //
  // prev is flagged and del is its successor: set del's backlink, mark del,
  // then physically delete it. Callable by any thread (helping).
  void help_flagged(Node* prev, Node* del, int v) const {
    chaos::point_at(Sites::kHelpFlagged);
    stats::tls().help_flagged.inc();
    this->set_backlink(Derived::backlink(del, v), prev);
    if (!Derived::succ(del, v).load().mark) try_mark(del, v);
    help_marked(prev, del, v);
  }

  // prev's successor field was seen flagged: help the deletion it stands
  // for. (A counted policy re-reads the successor as a counted reference;
  // the view from a failed C&S holds none.)
  void help_flagged_at(Node* prev, View seen, int v) const {
    if (Node* del = this->flagged_successor(Derived::succ(prev, v), seen)) {
      help_flagged(prev, del, v);
      this->drop(del);
    }
  }

  // ---- TRYMARK (Figure 4) ------------------------------------------------
  void try_mark(Node* del, int v) const {
    do {
      Node* next = this->read_succ(Derived::succ(del, v));
      const View result =
          chaos_cas(Sites::kMarkCas, Derived::succ(del, v),
                    View{next, false, false}, View{next, true, false});
      if (result == View{next, false, false}) {
        stats::tls().mark_cas.inc();
      } else if (result.flag && !result.mark) {
        // Failure because del itself got flagged: a deletion of del's
        // successor is underway; help it finish, then retry.
        help_flagged_at(del, result, v);
      }
      // Failure because del.right changed: loop re-reads and retries.
      this->drop(next);
    } while (!Derived::succ(del, v).load().mark);
  }

  // Replaces the reference on a marked node with one on the nearest
  // unmarked node along its backlink chain (paper lines 9-10 of TryFlag).
  // Because a node is only marked while its predecessor is flagged, chains
  // only grow to the left, which bounds the recovery cost.
  void walk_backlinks(Node*& prev, int v) const {
    auto& c = stats::tls();
    std::uint64_t chain = 0;
    while (Derived::succ(prev, v).load().mark) {
      chaos::point_at(Sites::kBacklinkStep);
      Node* back = this->read_backlink(Derived::backlink(prev, v));
      if (back == nullptr) break;  // defensive; marked => backlink set
      this->drop(prev);
      prev = back;
      c.backlink_traversal.inc();
      ++chain;
    }
    if (chain > 0) stats::chain_hist_tls().record(chain);
  }

  // ---- TRYFLAG (Figure 5) ------------------------------------------------
  //
  // Flags target's predecessor on level v. Consumes the reference on prev;
  // returns a reference on the final predecessor, kIn while target is
  // still linked (kDeleted once it is gone), and whether THIS call placed
  // the flag (the caller's Delete then reports success).
  std::tuple<Node*, FlagStatus, bool> try_flag(Node* prev, Node* target,
                                               int v) const {
    sync::Backoff backoff;
    for (;;) {
      if (Derived::succ(prev, v).load() == View{target, false, true})
        return {prev, FlagStatus::kIn, false};  // flagged by someone else
      const View result =
          chaos_cas(Sites::kFlagCas, Derived::succ(prev, v),
                    View{target, false, false}, View{target, false, true});
      if (result == View{target, false, false}) {
        stats::tls().flag_cas.inc();
        return {prev, FlagStatus::kIn, true};
      }
      if (result == View{target, false, true})
        return {prev, FlagStatus::kIn, false};  // lost to a concurrent flag
      // Lost a C&S to real contention: back off briefly before recovering,
      // so retry storms on one hot predecessor drain instead of thrashing.
      // Off the success path, so it adds no counted steps and no fast-path
      // cost (sync/backoff.h).
      backoff.pause();
      // Possibly a failure due to marking: recover through the backlink
      // chain, then relocate target's predecessor (line 11; k - eps).
      walk_backlinks(prev, v);
      Node* del;
      std::tie(prev, del) = search<false>(target->key, prev, v);
      this->drop(del);
      if (del != target) return {prev, FlagStatus::kDeleted, false};
    }
  }

  // DeleteNode: the three-step deletion of del on level v. Both references
  // stay the caller's. Returns true iff this call's flag initiated the
  // deletion.
  bool delete_node(Node* prev, Node* del, int v) const {
    auto [flag_prev, status, flagged] = try_flag(this->hold(prev), del, v);
    if (status == FlagStatus::kIn) help_flagged(flag_prev, del, v);
    this->drop(flag_prev);
    return flagged;
  }

  // Finger re-entry: re-acquires way e of a finger cache through the access
  // policy's finger_try_hold — proof that the cached node is still
  // dereferenceable — recovers a marked finger leftward through its
  // backlinks, and returns it held and unmarked as a search start. Returns
  // nullptr, and kills the way if reacquiring failed, when it cannot serve.
  template <typename Way>
  Node* finger_resume(Way& e, int v) const {
    if (!this->finger_try_hold(e.node, e.tag)) {
      e.node = nullptr;
      return nullptr;
    }
    Node* start = e.node;
    chaos::point_at(Sites::kFingerValidate);
    walk_backlinks(start, v);
    if (Derived::succ(start, v).load().mark) {
      this->drop(start);
      return nullptr;
    }
    sync::finger_freq_bump(e.freq);
    stats::tls().finger_hit.inc();
    return start;
  }

  // Calls fn(node) for every unmarked node after `from` on level v, in key
  // order, until fn returns false or the tail is reached. Weakly
  // consistent under concurrency, like every lock-free iteration.
  template <typename Fn>
  void for_each_node(Node* from, int v, Fn&& fn) const {
    Node* curr = this->hold(from);
    Node* next = this->read_succ(Derived::succ(curr, v));
    while (next->kind != Kind::kTail) {
      if (!Derived::succ(next, v).load().mark && !fn(next)) break;
      Node* after = this->read_succ(Derived::succ(next, v));
      this->drop(curr);
      curr = next;
      next = after;
    }
    this->drop(curr);
    this->drop(next);
  }

  // Quiescent check of level v (tests): the paper's INV 1-5 as they
  // manifest at a quiescent point — keys strictly sorted from head to
  // tail, and no linked node marked or flagged (every deletion, once
  // begun, completes before its operation returns). check(node) adds the
  // structure's own conditions. Counts the linked nodes into `count`;
  // returns the first violation, or nullptr.
  template <typename Check>
  const char* validate_level(Node* head, int v, std::size_t& count,
                             Check&& check) const {
    const View hv = Derived::succ(head, v).load();
    if (hv.mark || hv.flag) return "head marked or flagged";
    const Node* prev = head;
    Node* curr = hv.right;
    while (curr->kind != Kind::kTail) {
      if (const char* error = check(curr)) return error;
      const View cv = Derived::succ(curr, v).load();
      if (cv.mark) return "linked node is marked at quiescence";
      if (cv.flag) return "linked node is flagged at quiescence";
      if (prev->kind == Kind::kInterior && !comp_(prev->key, curr->key))
        return "INV1 violated: keys not strictly sorted";
      ++count;
      prev = curr;
      curr = cv.right;
      if (curr == nullptr) return "level does not reach tail";
    }
    return nullptr;
  }

  // ---- INSERT retry loop (Figure 5, lines 5-22) ----------------------------
  //
  // Links node between prev and next on level v, recovering from flagging
  // (help the deletion), marking (walk backlinks) and repositioning
  // (search) until the C&S lands or a node with node's key turns out to
  // precede it. Consumes the references on prev and next; returns a
  // reference on the final prev with kInserted or kDuplicate. The caller
  // keeps node (and disposes of it on kDuplicate: it was never linked here).
  std::pair<Node*, InsertResult> insert_loop(Node* node, Node* prev,
                                             Node* next, int v) const {
    if (node_eq(prev, node->key)) {
      this->drop(next);
      return {prev, InsertResult::kDuplicate};
    }
    sync::Backoff backoff;
    InsertResult r;
    while ((r = insert_step(node, prev, next, v, backoff)) ==
           InsertResult::kRetry) {
    }
    return {prev, r};
  }

  // One iteration of the loop: one C&S attempt and, on failure, one
  // recovery (help / backlink walk / search). prev and next are updated in
  // place for the next iteration; next is consumed unless kRetry.
  InsertResult insert_step(Node* node, Node*& prev, Node*& next, int v,
                           sync::Backoff& backoff) const {
    const View prev_succ = Derived::succ(prev, v).load();
    if (prev_succ.flag) {
      help_flagged_at(prev, prev_succ, v);
    } else {
      Derived::succ(node, v).store_unsynchronized(View{next, false, false});
      // Count the link prev->node before the C&S publishes it: once it is
      // published a deleter may unlink node and drop that count at once.
      // (node->next inherits the count of the replaced prev->next link.)
      this->hold(node);
      const View result =
          chaos_cas(Sites::kInsertCas, Derived::succ(prev, v),
                    View{next, false, false}, View{node, false, false});
      if (result == View{next, false, false}) {
        stats::tls().insert_cas.inc();  // linearization point
        this->drop(next);
        return InsertResult::kInserted;
      }
      this->drop(node);  // roll the link count back
      if (result.flag && !result.mark) help_flagged_at(prev, result, v);
      // Failed insertion C&S under contention: back off before the
      // recovery walk and re-search (no counted steps; see try_flag).
      backoff.pause();
      walk_backlinks(prev, v);
    }
    this->drop(next);
    std::tie(prev, next) = search<true>(node->key, prev, v);
    if (!node_eq(prev, node->key)) return InsertResult::kRetry;
    this->drop(next);
    return InsertResult::kDuplicate;
  }

  // ---- Insert_SL: tower construction (Section 4) ---------------------------
  //
  // Links root — a new tower — between prev and next on level 1, then
  // builds the tower bottom-up to `height`, locating each level afresh.
  // Consumes prev, next and the creator's reference on root. Returns false
  // iff root's key turned out to be present on level 1 (root was never
  // published and is disposed of). A build interrupted by a deletion of
  // the root stops, unlinking the level it just added; the insertion still
  // succeeded, linearized when the root was linked.
  //
  // Skip-list structures supply: Node* level_node(Node* below, int v) —
  // the node that stands for the tower on level v (nullptr: the tower died
  // meanwhile; stop); abandon_level(Node* n, int v) — dispose of a node
  // never linked on level v; raise_top_hint(v); search_to_level<true>.
  bool build_tower(Node* root, Node* prev, Node* next, int height) const {
    Node* node = root;
    for (int v = 1;;) {
      InsertResult result;
      std::tie(prev, result) = insert_loop(node, prev, next, v);
      if (result == InsertResult::kDuplicate) {
        // Above level 1, a same-key tower can only appear after our root
        // was deleted and the key reinserted: stop building.
        self().abandon_level(node, v);
        this->drop(prev);
        return v > 1;
      }
      if (self().superfluous(node)) {
        // Construction interrupted by a deletion of our root: remove the
        // level just linked above the (now superfluous) root.
        if (v != 1) delete_node(prev, node, v);
        break;
      }
      self().raise_top_hint(v);
      if (v == height) break;  // tower complete
      ++v;
      chaos::point_at(Sites::kTowerBuild);
      Node* upper = self().level_node(node, v);
      if (upper == nullptr) break;
      node = upper;
      this->drop(prev);
      std::tie(prev, next) =
          self().template search_to_level<true>(node->key, v);
    }
    this->drop(prev);
    this->drop(node);
    return true;
  }

 private:
  const Derived& self() const noexcept {
    return static_cast<const Derived&>(*this);
  }
};

}  // namespace lf::core
