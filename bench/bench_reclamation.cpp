// E9 — memory-reclamation overhead (Section 5: "We have not explicitly
// incorporated a memory management technique, but a possible approach is
// to use Valois's reference counting method").
//
// This repository's substitution: epoch-based reclamation as the default
// (safe for backlink traversal) and hazard pointers for the Michael
// baseline. This bench quantifies what each policy costs over the paper's
// leak-everything setting, on a 50/50 insert/delete churn that maximizes
// retirement traffic.
//
// `bench_reclamation --smoke` runs the same rows with 4,000 operations each
// (the ctest row bench_reclamation_smoke) and exits non-zero unless every
// reference-counted configuration freed exactly what it retired: a Valois
// count that reaches zero recycles the node at once, so any difference is
// a leaked or double-counted node.
#include <cstring>
#include <iostream>
#include <string>

#include "lf/baselines/michael_list.h"
#include "lf/core/fr_list.h"
#include "lf/core/fr_list_rc.h"
#include "lf/core/fr_skiplist.h"
#include "lf/core/fr_skiplist_rc.h"
#include "lf/harness/bench_env.h"
#include "lf/harness/table.h"
#include "lf/reclaim/epoch.h"
#include "lf/reclaim/hazard.h"
#include "lf/reclaim/leaky.h"
#include "lf/workload/runner.h"

namespace {

constexpr int kThreads = 4;
constexpr std::uint64_t kOps = 120'000;
constexpr std::uint64_t kSmokeOps = 4'000;

std::uint64_t g_ops = kOps;  // --smoke lowers it

lf::workload::RunConfig config() {
  lf::workload::RunConfig cfg;
  cfg.threads = kThreads;
  cfg.ops_per_thread = g_ops / kThreads;
  cfg.key_space = 512;
  cfg.prefill = 256;
  cfg.mix = {50, 50};
  cfg.seed = 31;
  return cfg;
}

template <typename Set>
lf::workload::RunResult row(lf::harness::Table& table, const char* name,
                            Set& set) {
  const auto cfg = config();
  lf::workload::prefill(set, cfg);
  const auto res = lf::workload::run_workload(set, cfg);
  table.add_row(
      {name, lf::harness::Table::num(res.mops_per_sec(), 2),
       lf::harness::Table::num(res.steps_per_op(), 1),
       lf::harness::Table::num(
           static_cast<double>(res.steps.node_retired) /
               static_cast<double>(res.total_ops),
           3),
       std::to_string(res.steps.node_retired),
       std::to_string(res.steps.node_freed)});
  return res;
}

// Reference counting frees at the last release, so an RC run must free
// exactly what it retired.
bool rc_balanced(const char* name, const lf::workload::RunResult& res) {
  if (res.steps.node_freed == res.steps.node_retired) return true;
  std::cout << "FAIL: " << name << " retired " << res.steps.node_retired
            << " nodes but freed " << res.steps.node_freed << "\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_ops = kSmokeOps;
    } else {
      std::cerr << "usage: bench_reclamation [--smoke]\n";
      return 2;
    }
  }
  lf::harness::print_environment(
      "E9 (Section 5)",
      "reclamation policy cost: leak-everything (the paper's setting) vs "
      "epoch-based vs hazard pointers");

  lf::harness::print_section("50i/50d churn, 4 threads, 512-key space, " +
                             std::to_string(g_ops / 1000) + "k ops");
  bool ok = true;
  lf::harness::Table table({"configuration", "Mops/s", "steps/op",
                            "retired/op", "retired", "freed (in run)"});
  {
    lf::FRList<long, long, std::less<long>, lf::reclaim::LeakyReclaimer> s;
    row(table, "FRList + Leaky (paper setting)", s);
  }
  {
    lf::reclaim::EpochDomain domain;
    lf::FRList<long, long> s{lf::reclaim::EpochReclaimer(domain)};
    row(table, "FRList + Epoch", s);
  }
  {
    lf::reclaim::EpochDomain domain;
    lf::FRSkipList<long, long> s{lf::reclaim::EpochReclaimer(domain)};
    row(table, "FRSkipList + Epoch", s);
  }
  {
    constexpr const char* kName = "FRListRC + RefCounting (Valois)";
    lf::FRListRC<long, long> s;
    ok &= rc_balanced(kName, row(table, kName, s));
  }
  {
    constexpr const char* kName = "FRSkipListRC + RefCounting";
    lf::FRSkipListRC<long, long> s;
    ok &= rc_balanced(kName, row(table, kName, s));
  }
  {
    lf::MichaelList<long, long, std::less<long>,
                    lf::reclaim::LeakyReclaimer> s;
    row(table, "MichaelList + Leaky", s);
  }
  {
    lf::reclaim::EpochDomain domain;
    lf::MichaelList<long, long> s{};
    row(table, "MichaelList + Epoch(global)", s);
  }
  {
    lf::reclaim::HazardDomain domain;
    lf::MichaelListHP<long, long> s(domain);
    row(table, "MichaelListHP + HazardPtrs", s);
  }
  table.print();

  std::cout << "Expected shape: epoch guards cost a few percent over leaky\n"
               "(two atomic ops per operation); hazard pointers cost more\n"
               "(a protect+validate fence per traversal hop). freed < \n"
               "retired is normal — the remainder drains at teardown.\n";
  return ok ? 0 : 1;
}
