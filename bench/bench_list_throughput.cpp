// E3 — list comparison across implementations, mixes and thread counts,
// mirroring the experimental methodology of Harris (DISC'01) and Michael
// (SPAA'02), the works whose results the paper cites as evidence that
// lock-free lists are practical.
//
// Reported in both units: Mops/s (wall clock — only meaningful relative to
// core count) and the paper's steps/op (schedule-driven, portable).
//
// `bench_list_throughput --smoke` runs a 64-key grid with 2,000 operations
// per configuration (the ctest row bench_list_throughput_smoke) and exits
// non-zero unless the FR list never restarted from the head and ended
// every run with its invariants intact (FRList::validate).
#include <cstring>
#include <iostream>
#include <string>

#include "lf/baselines/coarse_list.h"
#include "lf/baselines/harris_list.h"
#include "lf/baselines/lazy_list.h"
#include "lf/baselines/michael_list.h"
#include "lf/core/fr_list.h"
#include "lf/harness/bench_env.h"
#include "lf/harness/table.h"
#include "lf/workload/runner.h"

namespace {

struct Measured {
  lf::workload::RunResult res;
  bool valid = true;  // the structure's own invariant check, if it has one
};

template <typename Set>
Measured measure(int threads, std::uint64_t n, lf::workload::OpMix mix,
                 std::uint64_t total_ops) {
  Set set;
  lf::workload::RunConfig cfg;
  cfg.threads = threads;
  cfg.ops_per_thread = total_ops / static_cast<std::uint64_t>(threads);
  cfg.key_space = 2 * n;
  cfg.prefill = n;
  cfg.mix = mix;
  cfg.seed = 11;
  lf::workload::prefill(set, cfg);
  Measured m{lf::workload::run_workload(set, cfg)};
  if constexpr (requires { set.validate().ok; }) m.valid = set.validate().ok;
  return m;
}

struct Impl {
  const char* name;
  Measured (*run)(int, std::uint64_t, lf::workload::OpMix, std::uint64_t);
  bool restart_free;  // the FR list recovers through backlinks instead
};

const Impl kImpls[] = {
    {"FRList (paper)", &measure<lf::FRList<long, long>>, true},
    {"HarrisList", &measure<lf::HarrisList<long, long>>, false},
    {"MichaelList", &measure<lf::MichaelList<long, long>>, false},
    {"LazyList", &measure<lf::LazyList<long, long>>, false},
    {"CoarseList", &measure<lf::CoarseList<long, long>>, false},
};

// Runs the grid and prints its table. Returns false (and says why) if a
// restart-free implementation restarted or a run broke an invariant.
bool grid(std::uint64_t n, lf::workload::OpMix mix, std::uint64_t ops) {
  bool ok = true;
  lf::harness::print_section("n = " + std::to_string(n) + ", mix " +
                             mix.name());
  lf::harness::Table table({"impl", "t=1 Mops", "t=2 Mops", "t=4 Mops",
                            "t=8 Mops", "steps/op (t=4)", "restarts/op"});
  for (const Impl& impl : kImpls) {
    std::string cells[4];
    double steps4 = 0, restarts4 = 0;
    int i = 0;
    for (int t : {1, 2, 4, 8}) {
      const auto [res, valid] = impl.run(t, n, mix, ops);
      if (!valid || (impl.restart_free && res.steps.restart != 0)) {
        std::cout << "FAIL: " << impl.name << " t=" << t << ": "
                  << res.steps.restart << " restarts, invariants "
                  << (valid ? "hold" : "broken") << "\n";
        ok = false;
      }
      cells[i++] = lf::harness::Table::num(res.mops_per_sec(), 2);
      if (t == 4) {
        steps4 = res.steps_per_op();
        restarts4 = static_cast<double>(res.steps.restart) /
                    static_cast<double>(res.total_ops);
      }
    }
    table.add_row({impl.name, cells[0], cells[1], cells[2], cells[3],
                   lf::harness::Table::num(steps4, 1),
                   lf::harness::Table::num(restarts4, 4)});
  }
  table.print();
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: bench_list_throughput [--smoke]\n";
      return 2;
    }
  }
  lf::harness::print_environment(
      "E3 (Sections 1-2)",
      "FR list does competitive work per op vs Harris/Michael and avoids "
      "their restarts; lock-free beats coarse locking under concurrency");

  bool ok = true;
  if (smoke) {
    ok &= grid(64, {10, 10}, 2'000);
    ok &= grid(64, {50, 50}, 2'000);
  } else {
    ok &= grid(512, {10, 10}, 60'000);   // read-mostly
    ok &= grid(512, {50, 50}, 60'000);   // update-only
    ok &= grid(4096, {10, 10}, 40'000);  // larger list, read-mostly
  }

  std::cout << "Note: wall-clock scalability across t is only meaningful\n"
               "with >= t physical cores; steps/op and restarts/op are the\n"
               "portable comparison (restarts are Harris/Michael recovery;\n"
               "the FR list never restarts).\n";
  return ok ? 0 : 1;
}
