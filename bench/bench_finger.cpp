// E13 — finger search: the thread-local hint layer (DESIGN.md §10) against
// head-started searches, on the workloads it was built for.
//
// Matrix: FRSkipList under epoch reclamation, whose searches always descend
// from the head (its finger layer lost wall clock on every workload and was
// removed; these rows keep their `finger: off` labels so
// tools/bench_trend.py keeps gating them), and {finger on, finger off} for
// the reference-counted FRSkipListRC and for FRList under epoch
// reclamation, at 1, 8 and 16 threads, on three key streams:
//
//   * zipf-0.99   — Zipfian popularity with SCRAMBLED positions (the raw
//                   generator puts hot keys at the left edge of the key
//                   space, where a head start is already nearly optimal —
//                   scrambling keeps the skew but moves it off the edge).
//   * repeat-range — scan-like locality: a narrow window of keys reused for
//                   a few hundred operations before jumping.
//   * uniform     — the control: no locality to exploit, so the finger's
//                   validation overhead is all that can show up (< a few
//                   percent, or the layer is mispriced).
//
// The claim under test: on the localized streams the finger-enabled
// FRSkipListRC and FRList do fewer essential steps/op than finger-off at
// every thread count, while uniform stays within a few percent. Multi-thread
// wall-clock rows at 8 and 16 threads oversubscribe the host's cores, so
// they measure scheduling, not parallelism — steps/op is the
// schedule-independent headline (see EXPERIMENTS.md).
//
// Output: one line per configuration, printed and flushed as soon as it is
// measured (so a crash mid-matrix still leaves every finished row), then
// the tables; BENCH_finger.json is rewritten after every row.
//
// `bench_finger --smoke` runs the same matrix with 4,800 operations per
// configuration and writes no JSON: the sanitizer CI jobs run it as the
// ctest row bench_finger_smoke, so the threaded finger paths run under ASan
// and TSan.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "lf/core/fr_list.h"
#include "lf/core/fr_skiplist.h"
#include "lf/core/fr_skiplist_rc.h"
#include "lf/harness/bench_env.h"
#include "lf/harness/json_writer.h"
#include "lf/harness/table.h"
#include "lf/instrument/counters.h"
#include "lf/reclaim/epoch.h"
#include "lf/sync/finger.h"
#include "lf/workload/runner.h"

namespace {

using lf::harness::Table;
namespace wl = lf::workload;

using Skip = lf::FRSkipList<long, long>;
template <typename Finger>
using SkipRC = lf::FRSkipListRC<long, long, std::less<long>, 24, Finger>;
template <typename Finger>
using List = lf::FRList<long, long, std::less<long>,
                        lf::reclaim::EpochReclaimer, lf::mem::PoolAlloc,
                        Finger>;

constexpr std::uint64_t kKeySpace = 4096;
constexpr std::uint64_t kPrefill = 2048;
constexpr std::uint64_t kOpsTotal = 240'000;
constexpr std::uint64_t kSmokeOpsTotal = 4'800;

// Operations per configuration, split across its threads (--smoke lowers it).
std::uint64_t g_ops_total = kOpsTotal;
bool g_smoke = false;

struct Workload {
  const char* name;
  wl::KeyDist dist;
  wl::KeyGen::Options opts;
};

const Workload kWorkloads[] = {
    {"zipf-0.99", wl::KeyDist::kZipfian, {.scramble = true}},
    {"repeat-range", wl::KeyDist::kRepeatedRange,
     {.range_width = 64, .range_dwell = 256}},
    {"uniform", wl::KeyDist::kUniform, {}},
};

struct Row {
  std::string layout;
  std::string reclaimer;  // "epoch" | "rc"
  bool finger = false;
  std::string workload;
  int threads = 0;
  double mops = 0;
  double ns_per_op = 0;
  double steps_per_op = 0;
  double hit_rate = 0;
  double skip_per_op = 0;
};

// Prefills a fresh Set, runs workload w at `threads` threads and labels the
// row.
template <typename Set>
Row run_one(const char* layout, const char* reclaimer, bool finger,
            const Workload& w, int threads) {
  wl::RunConfig cfg;
  cfg.threads = threads;
  cfg.ops_per_thread = g_ops_total / static_cast<std::uint64_t>(threads);
  cfg.key_space = kKeySpace;
  cfg.prefill = kPrefill;
  cfg.mix = {10, 10};  // 10i/10d/80s, the read-leaning standard grid point
  cfg.dist = w.dist;
  cfg.keygen = w.opts;
  cfg.seed = 0xf168e4;
  cfg.measure_contention = false;

  Set set;
  wl::prefill(set, cfg);
  const auto res = wl::run_workload(set, cfg);

  Row r;
  r.layout = layout;
  r.reclaimer = reclaimer;
  r.finger = finger;
  r.workload = w.name;
  r.threads = threads;
  r.mops = res.mops_per_sec();
  r.ns_per_op = res.total_ops == 0
                    ? 0
                    : res.seconds * 1e9 / static_cast<double>(res.total_ops);
  r.steps_per_op = res.steps_per_op();
  r.hit_rate = res.steps.finger_hit_rate();
  r.skip_per_op = static_cast<double>(res.steps.finger_skip) /
                  static_cast<double>(res.total_ops);
  lf::reclaim::EpochDomain::global().drain();
  return r;
}

void emit_json(const std::vector<Row>& rows);

// Keeps a measured row: prints it on one flushed line and rewrites the JSON,
// so every finished row survives a later crash.
void record(std::vector<Row>& rows, Row r) {
  std::cout << "row " << r.layout << " " << r.reclaimer << " finger="
            << (r.finger ? "on" : "off") << " " << r.workload << " T"
            << r.threads << ": " << r.ns_per_op << " ns/op, "
            << r.steps_per_op << " steps/op, hit " << r.hit_rate
            << std::endl;
  rows.push_back(std::move(r));
  if (!g_smoke) emit_json(rows);
}

// Every workload at 1, 8 and 16 threads.
template <typename Fn>
void each_config(Fn&& fn) {
  for (const Workload& w : kWorkloads)
    for (int threads : {1, 8, 16}) fn(w, threads);
}

void run_skiplist(std::vector<Row>& rows) {
  each_config([&](const Workload& w, int threads) {
    record(rows, run_one<Skip>("tower", "epoch", false, w, threads));
  });
}

// Finger off and on for a structure that keeps a finger layer: the
// reference-counted FRSkipListRC (stamp-validated fingers over a
// type-stable arena), and FRList under epoch reclamation, the list the repo
// benchmark's list-local workload runs (does its finger, ways plus left
// anchors, lose ns/op where there is no locality to exploit?).
template <template <typename> class Set>
void run_on_off(const char* layout, const char* reclaimer,
                std::vector<Row>& rows) {
  each_config([&](const Workload& w, int threads) {
    record(rows, run_one<Set<lf::sync::FingerOff>>(layout, reclaimer, false,
                                                   w, threads));
    record(rows, run_one<Set<lf::sync::FingerOn>>(layout, reclaimer, true, w,
                                                  threads));
  });
}

const Row* find_row(const std::vector<Row>& rows, const std::string& layout,
                    const std::string& reclaimer, bool finger,
                    const char* workload, int threads) {
  for (const Row& r : rows) {
    if (r.layout == layout && r.reclaimer == reclaimer &&
        r.finger == finger && r.workload == workload &&
        r.threads == threads) {
      return &r;
    }
  }
  return nullptr;
}

void emit_json(const std::vector<Row>& rows) {
  lf::harness::JsonWriter j;
  j.begin_object();
  j.field("experiment", "E13 finger search");
  j.field("key_space", kKeySpace);
  j.field("total_ops", kOpsTotal);
  j.field("mix", "10i/10d/80s");
  j.key("configs").begin_array();
  for (const Row& r : rows) {
    j.begin_object();
    j.field("layout", r.layout.c_str());
    j.field("reclaimer", r.reclaimer.c_str());
    j.field("finger", r.finger);
    j.field("workload", r.workload.c_str());
    j.field("threads", static_cast<std::uint64_t>(r.threads));
    j.field("mops_per_sec", r.mops);
    j.field("ns_per_op", r.ns_per_op);
    j.field("essential_steps_per_op", r.steps_per_op);
    j.field("finger_hit_rate", r.hit_rate);
    j.field("finger_skip_per_op", r.skip_per_op);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::ofstream f("BENCH_finger.json");
  f << j.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
      g_ops_total = kSmokeOpsTotal;
    } else {
      std::cerr << "usage: bench_finger [--smoke]\n";
      return 2;
    }
  }
  lf::harness::print_environment(
      "E13 (finger search)",
      "per-thread search hints start where the last search ended; localized "
      "workloads should drop steps/op sharply, uniform must not regress");

  std::vector<Row> rows;
  run_skiplist(rows);
  run_on_off<SkipRC>("arena", "rc", rows);
  run_on_off<List>("list", "epoch", rows);

  for (const Workload& w : kWorkloads) {
    lf::harness::print_section(std::string("workload: ") + w.name);
    Table t({"layout", "reclaim", "finger", "threads", "Mops/s", "ns/op",
             "steps/op", "hit rate", "skip/op"});
    for (const Row& r : rows) {
      if (r.workload != w.name) continue;
      t.add_row({r.layout, r.reclaimer, r.finger ? "on" : "off",
                 std::to_string(r.threads), Table::num(r.mops, 3),
                 Table::num(r.ns_per_op, 0), Table::num(r.steps_per_op, 2),
                 Table::num(r.hit_rate, 3), Table::num(r.skip_per_op, 2)});
    }
    t.print();
  }

  // Acceptance summary: finger-on vs finger-off for the two structures
  // that keep a finger layer, FRSkipListRC and FRList.
  lf::harness::print_section("finger-on vs finger-off");
  Table s({"layout", "reclaim", "workload", "threads", "steps off", "on",
           "reduction", "ns/op off", "on"});
  for (const auto& [layout, reclaimer] :
       {std::pair{"arena", "rc"}, std::pair{"list", "epoch"}}) {
    each_config([&](const Workload& w, int threads) {
      const Row* off = find_row(rows, layout, reclaimer, false, w.name,
                                threads);
      const Row* on = find_row(rows, layout, reclaimer, true, w.name,
                               threads);
      if (off == nullptr || on == nullptr || off->steps_per_op == 0) return;
      const double red = 1.0 - on->steps_per_op / off->steps_per_op;
      s.add_row({layout, reclaimer, w.name, std::to_string(threads),
                 Table::num(off->steps_per_op, 2),
                 Table::num(on->steps_per_op, 2),
                 Table::num(100.0 * red, 1) + "%",
                 Table::num(off->ns_per_op, 0), Table::num(on->ns_per_op, 0)});
    });
  }
  s.print();
  std::cout << "Expected shape: zipf-0.99 and repeat-range reductions >= 20%\n"
               "at every thread count; uniform within a few percent of zero\n"
               "(validation cost only). The tower rows are FRSkipList's\n"
               "head descents under epoch reclamation. 8 and 16 threads\n"
               "oversubscribe the cores, so their wall clock mostly\n"
               "measures scheduling.\n\n";

  if (!g_smoke) std::cout << "wrote BENCH_finger.json\n";
  return 0;
}
