// Finger (search-hint) layer: per-thread, per-structure memory of where
// recent searches ended, so the next search can start there instead of at
// the head.
//
// Since PR 5 the memory is a small set-associative cache rather than a
// single hint: each (thread, instance) slot holds kFingerCacheWays entries,
// keyed by the bracket of keys the cached position serves ([pred_key,
// succ_key]), with least-frequently-hit-with-aging replacement
// (finger_victim_pick below). A search probes for the way whose cached
// bracket contains the target key, validates ONLY that way with the
// reclaimer-specific protocol below, and falls back to the head on a miss.
// This is what serves skewed-but-scattered (zipf) hot sets: a single
// finger thrashes when the hot keys are popular but far apart, while k
// ways hold k disjoint hot brackets simultaneously — provided replacement
// is frequency-aware, since the zipf tail's miss flow laps any
// recency-only policy before the hot keys recur. The lists' way sets also
// carry two left anchors: fallback starts for keys left of every way
// (finger_anchor_save).
//
// The paper's machinery makes this safe almost for free: a stale hint is
// self-identifying (its mark bit is set), and a marked node carries a
// backlink to a node further LEFT, so a search that starts from a stale
// finger recovers exactly the way a failed C&S recovers — walk backlinks to
// the nearest unmarked node and resume. Starting a search at any unmarked
// node with key < k is precisely the restart the paper's Insert/TryFlag
// loops already perform after backlink recovery, so the finger adds no new
// proof obligations to the traversal itself (DESIGN.md §10).
//
// What IS new is the memory-reclamation obligation: the cached node pointer
// outlives the guard under which it was found, so before dereferencing it a
// later operation must prove the node (and its whole backlink chain) has
// not been freed in between. That proof is reclaimer-specific, which is why
// the layer is a policy keyed on the reclaimer:
//
//   LeakyReclaimer   nodes are never freed; every saved finger stays
//                    dereferenceable forever. Token is a constant.
//
//   EpochReclaimer   the token is the epoch the saving thread ADVERTISED
//                    while pinned. Any node the thread could reach during
//                    that pin was retired no earlier than that epoch e (the
//                    epoch argument in reclaim/epoch.h), so it is freed only
//                    once the global epoch reaches e + 2. A later pin that
//                    advertises the SAME epoch e (checked by comparing
//                    tokens) both proves the global never reached e + 2 and,
//                    by staying pinned at e, blocks the advance past e + 1
//                    for the whole new operation — the finger and every
//                    backlink reachable from it stay dereferenceable.
//                    Strictly-equal tokens are required: one epoch of slack
//                    would admit a node freed exactly at e + 2.
//
//   anything else    — the primary template reports kSupported = false and
//                    the structures compile the finger code out entirely.
//
// The reference-counted variants (core/*_rc.h) do not use tokens; they
// validate by re-acquiring a count on the node and checking a per-node
// reuse stamp (core/counted_access.h: finger_try_hold).
//
// Storage: hints live in thread_local direct-mapped slot arrays, keyed by a
// monotonically increasing per-structure instance id. Ids are never reused,
// so a slot left over from a destroyed structure can never be mistaken for
// the current one (the id check fails without touching the stale pointer).
//
// The whole layer is statically removable: structures take a FingerOn /
// FingerOff policy tag (default on) and guard every finger touch with
// `if constexpr`, so the off configuration is zero-cost the same way
// LF_CHAOS off is.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "lf/chaos/chaos.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/leaky.h"

namespace lf::sync {

// Structure-level on/off switch (template parameter of FRList and the RC
// variants; FRSkipList has no finger layer — DESIGN.md §10).
struct FingerOn {
  static constexpr bool kEnabled = true;
};
struct FingerOff {
  static constexpr bool kEnabled = false;
};

// Reclaimer-specific validity proof. token() is called while the calling
// thread holds the reclaimer's guard, both when saving a finger and when
// attempting to reuse one; a saved entry is dereferenceable iff its saved
// token equals the current one.
template <typename Reclaimer>
struct FingerPolicy {
  static constexpr bool kSupported = false;
  static std::uint64_t token(Reclaimer&) noexcept { return 0; }
};

template <>
struct FingerPolicy<reclaim::LeakyReclaimer> {
  static constexpr bool kSupported = true;
  static std::uint64_t token(reclaim::LeakyReclaimer&) noexcept {
    return 1;  // nodes are immortal: every saved finger stays valid
  }
};

template <>
struct FingerPolicy<reclaim::EpochReclaimer> {
  static constexpr bool kSupported = true;
  static std::uint64_t token(reclaim::EpochReclaimer& r) {
    // +1 keeps 0 free as the "empty entry" value even if a domain ever
    // started at epoch 0 (the default domain starts at kBuckets).
    return r.pinned_epoch() + 1;
  }
};

// Monotonic id for finger-bearing structure instances. Never reused, so
// slot contents from a destroyed (or address-recycled) instance fail the id
// check instead of being dereferenced.
inline std::uint64_t next_finger_instance() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Set associativity of the per-(thread, instance) finger cache: how many
// bracket-keyed entries each structure keeps per level.
inline constexpr int kFingerCacheWays = 4;

// Replacement halves all frequency counters every kFingerAgePeriod
// replacements, so a way's retention tracks its RECENT hit rate and a
// once-hot way that went cold decays back to eviction candidacy.
inline constexpr unsigned kFingerAgePeriod = 32;

// Saturating bump of a way's frequency counter (called on every probe hit
// and in-place refresh).
inline void finger_freq_bump(std::uint8_t& freq) noexcept {
  if (freq != 0xff) ++freq;
}

// Victim selection over a way array: least-frequently-hit with aging
// (GCLOCK). Prefers a free way (`is_free(way)`: empty or stale);
// otherwise picks the way with the smallest `freq` counter, scanning from
// `hand` so ties rotate. New ways are inserted with freq == 0 — the next
// replacement evicts them unless they earn a hit first — which is what
// lets a skewed key stream keep its hot set resident: pure recency (plain
// clock) cannot, because under a zipf tail the hand circles faster than
// even the hottest key recurs, while here cold one-shot entries are
// recycled through a de-facto probation way and the accumulated counters
// of the hot ways are never disturbed by miss traffic.
template <typename Way, typename FreeFn>
int finger_victim_pick(Way* ways, int n, unsigned& hand, unsigned& ticks,
                       FreeFn&& is_free) noexcept {
  for (int i = 0; i < n; ++i)
    if (is_free(ways[i])) return i;
  if (++ticks >= kFingerAgePeriod) {
    ticks = 0;
    for (int i = 0; i < n; ++i) ways[i].freq >>= 1;
  }
  int victim = static_cast<int>(hand) % n;
  for (int off = 1; off < n; ++off) {
    const int i = (static_cast<int>(hand) + off) % n;
    if (ways[i].freq < ways[victim].freq) victim = i;
  }
  hand = static_cast<unsigned>((victim + 1) % n);
  return victim;
}

// One way of a bracket-keyed finger cache: a position a search returned
// (`node`, the n1 of its result), the bracket of keys it serves ([key,
// succ_key], n1's and n2's keys) and its validity tag — the reclaimer token
// (FRList) or the node's reuse stamp (the counted structures). The keys are
// cached copies, so probing never touches a cold node: only the way that
// wins the probe is dereferenced, after its tag or stamp validates.
template <typename Node, typename Key>
struct FingerWay {
  std::uint64_t tag = 0;
  Node* node = nullptr;
  Key key{};              // bracket low end; meaningful unless is_head
  Key succ_key{};         // bracket high end; meaningful unless succ_tail
  bool is_head = false;   // head sentinel compares below every key
  bool succ_tail = false; // tail sentinel compares above every key
  std::uint8_t freq = 0;  // hit counter (aged by finger_victim_pick)
};

// Left anchors of a list's way set. A list search only walks right, so a
// way serves only keys at or above its own; when a key stream moves to a
// window left of every LFU way (the hot ways stay on the old window, the
// new one lives in the single probation way), every search below the
// probation way's key restarts at the head. An anchor holds the LOWEST n1
// saved in one period of kFingerAnchorPeriod saves: entry [kFingerCacheWays]
// for the current period, [kFingerCacheWays + 1] for the previous one, so
// once a window's low edge has been seen, every key in the window has a
// start at most one window-width away. Anchors are fallback starts only
// (never a probe's bracket) and are written only by the sliding-minimum
// rule (finger_anchor_save), never refreshed like a way. Skip-list levels
// take none: a miss there costs O(log n) hops, not Θ(n).
inline constexpr int kFingerAnchors = 2;
inline constexpr unsigned kFingerAnchorPeriod = 32;

// The ways of one cache (one per level for a skip list) with their
// replacement state, followed by `Anchors` left anchors (0 or
// kFingerAnchors).
template <typename Way, int Anchors = 0>
struct FingerWays {
  static_assert(Anchors == 0 || Anchors == kFingerAnchors);
  Way way[kFingerCacheWays + Anchors] = {};
  unsigned hand = 0;          // tie rotation for victim selection
  unsigned ticks = 0;         // replacements since the last aging pass
  unsigned anchor_saves = 0;  // saves in the current anchor period
};

// Claims a thread's direct-mapped slot for instance `id`: ways left by
// another instance must never be probed as this one's.
template <typename Slot>
void finger_claim(Slot& slot, std::uint64_t id) noexcept {
  if (slot.instance != id) {
    slot = Slot{};
    slot.instance = id;
  }
}

// Deref-free probe over the cached brackets for key k. Returns {bracket,
// fallback}, entry indices or -1: `bracket` is the way whose [key,
// succ_key] contains k (the tightest such way, by low key); `fallback` the
// way or anchor with the largest low key still on the correct side of k
// (ways win ties). An entry qualifies when its low key is < k (Closed:
// <= k; the start a search may resume from) and `usable(entry)` holds.
// Every check reads only the cached fields.
template <bool Closed, typename Way, int Anchors, typename Key,
          typename Compare, typename Usable>
std::pair<int, int> finger_probe(const FingerWays<Way, Anchors>& set,
                                 const Key& k, const Compare& comp,
                                 Usable&& usable) {
  auto tighter = [&](int best, const Way& e) {
    return best < 0 || (!e.is_head && (set.way[best].is_head ||
                                       comp(set.way[best].key, e.key)));
  };
  int bracket = -1, fallback = -1;
  for (int i = 0; i < kFingerCacheWays + Anchors; ++i) {
    const Way& e = set.way[i];
    if (e.node == nullptr || !usable(e)) continue;
    if (!(e.is_head || (Closed ? !comp(k, e.key) : comp(e.key, k))))
      continue;  // wrong side of k
    if (i < kFingerCacheWays &&
        (e.succ_tail || !comp(e.succ_key, k))) {  // k <= succ_key
      if (tighter(bracket, e)) bracket = i;
    } else if (tighter(fallback, e)) {
      fallback = i;
    }
  }
  return {bracket, fallback};
}

// Sliding-minimum update of the anchors with `saved`, the way a save just
// wrote. The current anchor takes it when it is empty, stale (`usable`
// fails) or higher; after kFingerAnchorPeriod saves the current anchor
// becomes the previous one and the next period starts empty. The head is
// never anchored: it is every miss's start anyway, and as the lowest entry
// it would block the window's real low edge for a whole period.
template <typename Way, typename Compare, typename Usable>
void finger_anchor_save(FingerWays<Way, kFingerAnchors>& set,
                        const Way& saved, const Compare& comp,
                        Usable&& usable) {
  Way& cur = set.way[kFingerCacheWays];
  if (!saved.is_head &&
      (cur.node == nullptr || !usable(cur) || comp(saved.key, cur.key)))
    cur = saved;
  if (++set.anchor_saves == kFingerAnchorPeriod) {
    set.anchor_saves = 0;
    set.way[kFingerCacheWays + 1] = cur;
    cur.node = nullptr;
  }
}

// Saves a search result (n, its successor succ) with validity tag `tag`.
// A way already caching n is refreshed in place, then the way `prefer`
// (the bracket way that served the search, whose new bracket is a
// tightened subrange of its old one; -1 for none); otherwise a way that
// is empty or stale (`usable` fails: its tag no longer validates) is
// replaced first, and only then an LFU victim. A refreshed way keeps
// earning frequency; a brand-new way starts at zero — the next
// replacement's prime victim unless it earns a hit first — so one-shot
// cold keys recycle through a de-facto probation way instead of eroding
// the retained hot set. The anchors, if any, then see the saved way
// (finger_anchor_save). Returns the way written.
template <typename Way, int Anchors, typename Node, typename Compare,
          typename Usable>
int finger_save(FingerWays<Way, Anchors>& set, Node* n, Node* succ,
                std::uint64_t tag, int prefer, const Compare& comp,
                Usable&& usable, chaos::Site replace_site) {
  int w = -1;
  for (int i = 0; i < kFingerCacheWays; ++i)
    if (set.way[i].node == n) { w = i; break; }
  if (w < 0) w = prefer;
  const bool refresh = w >= 0;
  if (!refresh) {
    chaos::point_at(replace_site);
    w = finger_victim_pick(
        set.way, kFingerCacheWays, set.hand, set.ticks,
        [&](const Way& e) { return e.node == nullptr || !usable(e); });
  }
  Way& e = set.way[w];
  e.tag = tag;
  e.node = n;
  e.is_head = n->kind == Node::Kind::kHead;
  if (!e.is_head) e.key = n->key;  // cache-warm reads
  e.succ_tail = succ->kind == Node::Kind::kTail;
  if (!e.succ_tail) e.succ_key = succ->key;
  if (refresh) finger_freq_bump(e.freq);
  else e.freq = 0;
  if constexpr (Anchors > 0) finger_anchor_save(set, e, comp, usable);
  return w;
}

// Direct-mapped thread-local slot array for a structure's Slot type. Each
// distinct Slot type (one per structure template instantiation) gets its
// own array; instances hash into it by id. A collision between two live
// instances merely evicts (the id check turns the stale entry into a miss).
// (Distinct from kFingerCacheWays: this is how many INSTANCES of a
// structure type share a thread's storage, not the per-instance cache
// associativity.)
inline constexpr std::size_t kFingerTlsSlots = 8;

template <typename Slot>
Slot& tls_finger_slot(std::uint64_t instance) noexcept {
  thread_local Slot slots[kFingerTlsSlots] = {};
  return slots[instance & (kFingerTlsSlots - 1)];
}

}  // namespace lf::sync
