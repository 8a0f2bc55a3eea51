// E10 — C&S cost-model accounting (Sections 3.3-3.4).
//
// The paper's analysis bills costs to SUCCESSFUL C&S's and observes that
// "at most three C&S's can be part of any given operation": a successful
// insertion contributes one insertion C&S; a successful deletion one flag,
// one mark and one physical-deletion C&S. This bench verifies that
// bookkeeping identity live, per implementation, and profiles the C&S
// failure rates that the backlink/flag machinery (vs restarts) produces.
//
// The run exits non-zero unless flag == mark == unlink holds exactly for
// FRList and FRSkipList in every row: every operation completes before the
// counters are read, so each flag is matched by one mark and one unlink.
// `bench_cas_profile --smoke` runs 1 and 4 threads with fewer operations
// (the ctest row bench_cas_profile_smoke).
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "lf/baselines/harris_list.h"
#include "lf/baselines/michael_list.h"
#include "lf/core/fr_list.h"
#include "lf/core/fr_list_noflag.h"
#include "lf/core/fr_skiplist.h"
#include "lf/harness/bench_env.h"
#include "lf/harness/table.h"
#include "lf/workload/runner.h"

namespace {

std::uint64_t g_ops_total = 60'000;

// Adds the row; returns whether its flag, mark and unlink counts are equal.
template <typename Set>
bool row(lf::harness::Table& table, const char* name, int threads) {
  Set set;
  lf::workload::RunConfig cfg;
  cfg.threads = threads;
  cfg.ops_per_thread = g_ops_total / static_cast<std::uint64_t>(threads);
  cfg.key_space = 256;
  cfg.prefill = 128;
  cfg.mix = {30, 30};
  cfg.seed = 37;
  lf::workload::prefill(set, cfg);
  const auto res = lf::workload::run_workload(set, cfg);
  const auto& s = res.steps;
  const double ops = static_cast<double>(res.total_ops);
  const double fail_frac =
      s.cas_attempt == 0
          ? 0
          : static_cast<double>(s.cas_failures()) /
                static_cast<double>(s.cas_attempt);
  table.add_row(
      {name, lf::harness::Table::num(static_cast<double>(s.cas_attempt) / ops, 3),
       lf::harness::Table::num(static_cast<double>(s.cas_success) / ops, 3),
       lf::harness::Table::num(fail_frac, 4),
       std::to_string(s.insert_cas), std::to_string(s.flag_cas),
       std::to_string(s.mark_cas), std::to_string(s.pdelete_cas)});
  return s.flag_cas == s.mark_cas && s.mark_cas == s.pdelete_cas;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: bench_cas_profile [--smoke]\n";
      return 2;
    }
  }
  if (smoke) g_ops_total = 6'000;
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 8};
  bool exact = true;

  lf::harness::print_environment(
      "E10 (Sections 3.3-3.4)",
      "successful C&S accounting: 1 per insertion, 3 per deletion "
      "(flag+mark+unlink); failure rates stay small");

  for (int threads : thread_counts) {
    lf::harness::print_section("30i/30d/40s, 256-key space, threads = " +
                               std::to_string(threads));
    lf::harness::Table table({"impl", "CAS/op", "succ CAS/op", "fail frac",
                              "insert", "flag", "mark", "unlink"});
    const bool list_ok = row<lf::FRList<long, long>>(table, "FRList", threads);
    const bool skip_ok =
        row<lf::FRSkipList<long, long>>(table, "FRSkipList", threads);
    row<lf::FRListNoFlag<long, long>>(table, "FRListNoFlag", threads);
    row<lf::HarrisList<long, long>>(table, "HarrisList", threads);
    row<lf::MichaelList<long, long>>(table, "MichaelList", threads);
    table.print();
    if (!list_ok || !skip_ok) {
      std::cerr << "E10 identity violated at threads=" << threads
                << ": flag == mark == unlink fails for"
                << (list_ok ? "" : " FRList") << (skip_ok ? "" : " FRSkipList")
                << "\n";
      exact = false;
    }
  }

  std::cout << "Identities to check per row: for the FR structures, the\n"
               "flag/mark/unlink columns are (near-)equal — every deletion\n"
               "performs exactly the three-step protocol (the skip list\n"
               "repeats it once per tower level). Harris/NoFlag have no\n"
               "flag column activity (2-step deletions). FRSkipList's\n"
               "CAS/op includes the extra tower levels (~2 nodes/tower\n"
               "expected).\n";
  return exact ? 0 : 1;
}
