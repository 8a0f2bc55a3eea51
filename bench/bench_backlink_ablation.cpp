// E7 — ablation of the flag bit (Section 3.1):
//
//   "The introduction of backlinks alone, however, does not guarantee the
//    desired operation complexity. The problem is that long chains of
//    backlinks can be traversed by the same process many times. This
//    happens when these chains grow towards the right, i.e. when backlink
//    pointers are set to marked nodes ... We eliminate this possibility by
//    introducing flag bits."
//
// Part (a) builds the pathology DETERMINISTICALLY. Schedule: keys 1..m are
// in the list; an inserter has located the end (predecessor = node m);
// deleters have each located their victim's predecessor, then complete
// left-to-right with those now-stale hints:
//
//   * FRListNoFlag: completing the deletion of node i stores backlink(i) =
//     node i-1, which is ALREADY MARKED for every i >= 3 — the backlink
//     chain from node m reaches the unmarked anchor only after m-1 hops.
//   * FRList: the flagging C&S validates the predecessor atomically, so a
//     deletion's backlink always targets a node that is unmarked at set
//     time; under the same left-to-right deletion order every backlink
//     points directly at the anchor and recovery is one hop, independent
//     of m.
//
// Part (b) repeats the stochastic hotspot for completeness (on few-core
// hosts it produces little interference; the deterministic part carries
// the claim).
//
// The run exits non-zero unless part (a) is exact: FRList recovers in 1 hop
// and FRListNoFlag in m hops, for every m. `bench_backlink_ablation
// --smoke` checks it for small m and runs part (b) with fewer operations
// (the ctest row bench_backlink_ablation_smoke).
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "lf/core/fr_list.h"
#include "lf/core/fr_list_noflag.h"
#include "lf/harness/bench_env.h"
#include "lf/harness/table.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/leaky.h"
#include "lf/workload/runner.h"

namespace {

using FR =
    lf::FRList<long, long, std::less<long>, lf::reclaim::LeakyReclaimer>;
using NoFlag =
    lf::FRListNoFlag<long, long, std::less<long>, lf::reclaim::LeakyReclaimer>;

// Recovery cost (backlink hops) of one insertion that located before m
// stale-hint deletions, for the flagless variant.
std::uint64_t noflag_recovery_chain(long m) {
  NoFlag list;
  for (long k = 0; k <= m; ++k) list.insert(k, k);  // 0 is the anchor

  // The inserter locates the end of the list first: predecessor = node m.
  NoFlag::InsertCursor ins;
  list.insert_locate(m + 1, m + 1, ins);

  // Deleters locate their victims' predecessors, then complete
  // left-to-right with the now-stale hints: backlink(i) = node i-1, which
  // is already marked for every i >= 2.
  std::vector<NoFlag::EraseCursor> cursors(static_cast<std::size_t>(m));
  for (long i = 1; i <= m; ++i)
    list.erase_locate(i, cursors[static_cast<std::size_t>(i - 1)]);
  for (long i = 1; i <= m; ++i)
    list.erase_complete(cursors[static_cast<std::size_t>(i - 1)]);

  // Recover from node m: the insert's C&S fails against the marked node
  // and walks the backlink chain.
  const auto before = lf::stats::aggregate();
  list.insert_complete(ins);
  const auto delta = lf::stats::aggregate() - before;
  return delta.backlink_traversal;
}

// Same scenario for the real FRList: deletions run left-to-right as whole
// operations (the flag step makes a stale-hint completion impossible — the
// seam the ablation exposes does not exist here).
std::uint64_t fr_recovery_chain(long m) {
  FR list;
  for (long k = 0; k <= m; ++k) list.insert(k, k);
  FR::InsertCursor cur;
  list.insert_locate(m + 1, m + 1, cur);  // located: predecessor = node m
  for (long i = 1; i <= m; ++i) list.erase(i);
  const auto before = lf::stats::aggregate();
  list.insert_complete(cur);
  const auto delta = lf::stats::aggregate() - before;
  return delta.backlink_traversal;
}

void stochastic_hotspot(std::uint64_t ops_per_thread) {
  lf::harness::print_section(
      "(b) stochastic hotspot (8 threads, 45i/45d/10s, 48 keys)");
  lf::harness::Table table({"impl", "recoveries", "mean chain", "max chain",
                            "backlinks/op"});
  auto run = [&](const char* name, auto& set) {
    lf::stats::reset_chain_hist();
    lf::workload::RunConfig cfg;
    cfg.threads = 8;
    cfg.ops_per_thread = ops_per_thread;
    cfg.key_space = 48;
    cfg.prefill = 24;
    cfg.mix = {45, 45};
    cfg.seed = 23;
    lf::workload::prefill(set, cfg);
    const auto res = lf::workload::run_workload(set, cfg);
    const auto h = lf::stats::aggregate_chain_hist();
    table.add_row(
        {name, std::to_string(h.count()),
         lf::harness::Table::num(h.mean(), 2), std::to_string(h.max()),
         lf::harness::Table::num(
             static_cast<double>(res.steps.backlink_traversal) /
                 static_cast<double>(res.total_ops),
             5)});
  };
  lf::FRList<long, long> with_flags;
  run("FRList (flags)", with_flags);
  lf::FRListNoFlag<long, long> without;
  run("FRListNoFlag", without);
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: bench_backlink_ablation [--smoke]\n";
      return 2;
    }
  }
  const std::vector<long> ms =
      smoke ? std::vector<long>{8, 32}
            : std::vector<long>{8, 16, 32, 64, 128, 256, 512};
  bool exact = true;

  lf::harness::print_environment(
      "E7 (Section 3.1)",
      "flag bits prevent backlinks from targeting marked nodes; without "
      "them recovery chains grow with the deletion count");

  lf::harness::print_section(
      "(a) deterministic stale-hint schedule: recovery cost after m "
      "deletions");
  lf::harness::Table table({"m (deletions)", "FRList hops", "NoFlag hops",
                            "ratio"});
  for (long m : ms) {
    const auto fr = fr_recovery_chain(m);
    const auto nf = noflag_recovery_chain(m);
    if (fr != 1 || nf != static_cast<std::uint64_t>(m)) {
      std::cerr << "E7 identity violated at m=" << m << ": FRList " << fr
                << " hops (want 1), NoFlag " << nf << " hops (want m)\n";
      exact = false;
    }
    table.add_row({std::to_string(m), std::to_string(fr),
                   std::to_string(nf),
                   lf::harness::Table::ratio(static_cast<double>(nf),
                                             static_cast<double>(fr))});
  }
  table.print();
  std::cout << "Expected shape: FRList recovers in O(1) hops regardless of\n"
               "m; the flagless variant's chain grows linearly in m.\n\n";

  stochastic_hotspot(smoke ? 1'000 : 8'000);
  return exact ? 0 : 1;
}
