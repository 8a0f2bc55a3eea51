// E1 — the Section 3.1 adversarial execution.
//
// Paper claim: on the end-of-list schedule (q-1 inserters locate, one
// deleter kills their predecessor, inserters' C&S fails), Harris's list
// restarts from the head — total work Ω(q·n²), average cost Ω(n̄_E·c̄_E) —
// while the FR list recovers through one backlink, keeping the amortized
// cost O(n(S) + c(S)).
//
// Output: for each (q, n) the total essential steps and the per-failed-C&S
// recovery cost of both lists under the IDENTICAL deterministic schedule.
// Expected shape: Harris's recovery cost grows linearly with n; FRList's
// stays flat; the ratio grows without bound.
//
// The run exits non-zero unless the schedule's exact identities hold in
// every cell: FRList recovers in exactly 2.0 steps per interference (one
// backlink hop and one search step), and Harris's list restarts from the
// head exactly once per failed C&S. `bench_adversarial --smoke` checks them
// on a small grid (the ctest row bench_adversarial_smoke).
#include <cstdint>
#include <cstring>
#include <iostream>
#include <vector>

#include "lf/baselines/harris_list.h"
#include "lf/core/fr_list.h"
#include "lf/harness/bench_env.h"
#include "lf/harness/table.h"
#include "lf/reclaim/leaky.h"
#include "lf/workload/adversary.h"

namespace {

using FR = lf::FRList<long, long, std::less<long>, lf::reclaim::LeakyReclaimer>;
using Harris =
    lf::HarrisList<long, long, std::less<long>, lf::reclaim::LeakyReclaimer>;

struct Cell {
  std::uint64_t total_steps;
  double steps_per_failure;  // inserter recovery cost per interference
  std::uint64_t failures;
  std::uint64_t restarts;  // inserter-side restarts from the head
};

template <typename List>
Cell run(int inserters, std::uint64_t n, std::uint64_t rounds) {
  List list;
  const auto res =
      lf::workload::run_adversarial_schedule(list, inserters, n, rounds);
  Cell cell;
  cell.total_steps = res.steps.essential_steps();
  cell.failures = res.steps.cas_failures();
  // Inserter-side recovery only: the deleter's Ω(n) searches and the
  // one-time locate phase are identical for both algorithms and are
  // subtracted by the driver's per-role accounting.
  cell.steps_per_failure = res.recovery_steps_per_failed_cas();
  cell.restarts = res.recovery_steps().restart;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: bench_adversarial [--smoke]\n";
      return 2;
    }
  }
  const std::vector<int> qs =
      smoke ? std::vector<int>{2, 4} : std::vector<int>{2, 4, 8};
  const std::vector<std::uint64_t> ns =
      smoke ? std::vector<std::uint64_t>{64, 128}
            : std::vector<std::uint64_t>{64, 128, 256, 512, 1024, 2048};
  bool exact = true;

  lf::harness::print_environment(
      "E1 (Section 3.1)",
      "adversarial schedule: Harris restarts cost Ω(n) per interference; "
      "FR backlink recovery costs O(1)");

  for (int q : qs) {
    lf::harness::print_section("q = " + std::to_string(q) +
                               " processes (" + std::to_string(q - 1) +
                               " inserters + 1 deleter)");
    lf::harness::Table table(
        {"n", "rounds", "FR steps", "Harris steps", "FR rec/fail",
         "Harris rec/fail", "total ratio", "recovery ratio"});
    for (std::uint64_t n : ns) {
      const std::uint64_t rounds = n / 2;
      const Cell fr = run<FR>(q - 1, n, rounds);
      const Cell ha = run<Harris>(q - 1, n, rounds);
      if (fr.steps_per_failure != 2.0 || ha.restarts != ha.failures) {
        std::cerr << "E1 identity violated at q=" << q << " n=" << n
                  << ": FR rec/fail " << fr.steps_per_failure
                  << " (want 2.0), Harris restarts " << ha.restarts
                  << " for " << ha.failures << " failures\n";
        exact = false;
      }
      table.add_row(
          {std::to_string(n), std::to_string(rounds),
           lf::harness::Table::num(fr.total_steps),
           lf::harness::Table::num(ha.total_steps),
           lf::harness::Table::num(fr.steps_per_failure, 1),
           lf::harness::Table::num(ha.steps_per_failure, 1),
           lf::harness::Table::ratio(
               static_cast<double>(ha.total_steps),
               static_cast<double>(fr.total_steps)),
           lf::harness::Table::ratio(ha.steps_per_failure,
                                     fr.steps_per_failure)});
    }
    table.print();
  }

  std::cout << "Interpretation: 'rec/fail' is the traversal cost paid per\n"
               "failed C&S. The paper predicts O(1) for FRList (flat down\n"
               "the column) and Θ(n) for Harris (doubling with n), so the\n"
               "recovery ratio column should roughly double per row.\n";
  return exact ? 0 : 1;
}
