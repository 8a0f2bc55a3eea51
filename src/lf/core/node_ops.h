// The two node-level helpers every list-shaped structure in the repository
// shares — the FR structures (through core/level_core.h) and the
// Harris/Michael/lazy/restart baselines alike: the sentinel-aware key
// order and the chaos C&S wrapper.
#pragma once

#include <utility>

#include "lf/chaos/chaos.h"
#include "lf/instrument/counters.h"
#include "lf/sync/succ_field.h"

namespace lf::core {

// Key order over sentinel-bounded nodes. Sentinels hold no real keys;
// kHead compares below and kTail above every key, realizing the paper's
// -inf/+inf dummy keys for arbitrary key types. A node has `kind`
// (Kind::kHead / kInterior / kTail) and `key`.
template <typename Compare>
class KeyOrder {
 protected:
  KeyOrder() = default;
  explicit KeyOrder(Compare comp) : comp_(std::move(comp)) {}

  template <typename Node, typename Key>
  bool node_lt(const Node* n, const Key& k) const {  // n.key < k
    if (n->kind == Node::Kind::kHead) return true;
    if (n->kind == Node::Kind::kTail) return false;
    return comp_(n->key, k);
  }

  template <typename Node, typename Key>
  bool node_le(const Node* n, const Key& k) const {  // n.key <= k
    if (n->kind == Node::Kind::kHead) return true;
    if (n->kind == Node::Kind::kTail) return false;
    return !comp_(k, n->key);
  }

  template <typename Node, typename Key>
  bool node_eq(const Node* n, const Key& k) const {
    return n->kind == Node::Kind::kInterior && !comp_(n->key, k) &&
           !comp_(k, n->key);
  }

  Compare comp_;
};

}  // namespace lf::core

namespace lf::chaos {

// Every protocol C&S goes through this wrapper (found by argument-dependent
// lookup on the site). With LF_CHAOS off it inlines to the bare primitive.
// With chaos on, the site becomes an injection point, and an armed forced
// failure returns a view matching no caller's success or helping pattern —
// callers then re-read real state and take their recovery path (retry /
// help / backlink walk / restart) exactly as if a concurrent thread had won
// the C&S.
template <typename Node>
sync::SuccView<Node> chaos_cas([[maybe_unused]] Site site,
                               sync::SuccField<Node>& field,
                               sync::SuccView<Node> expected,
                               sync::SuccView<Node> desired) {
#if LF_CHAOS
  point(site);
  if (force_cas_fail(site)) {
    stats::tls().cas_attempt.inc();  // a failed attempt is still a step
    return sync::SuccView<Node>{nullptr, true, false};
  }
#endif
  return field.cas(expected, desired);
}

}  // namespace lf::chaos
