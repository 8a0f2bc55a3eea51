// E11 — memory layer ablation: the tower node (one block per tower: key,
// value, kind and every level's successor and backlink) under pooled
// versus global-allocator placement.
//
//   * ALLOCATOR (heap -> pool): per-thread freelists recycle blocks warm
//     and line-aligned, and the global allocator is hit only once per
//     256 KiB segment instead of once per tower.
//   * TOWER BYTES: the mean block size per tower (whole 64-byte lines) —
//     what the representation costs in memory, the same under either
//     allocator.
//
// The paper's complexity claims are placement-independent — the essential
// steps/op column must be equal across the rows (the same algorithm
// executes the same CAS/backlink/pointer steps); only the wall-clock and
// allocator columns may move. On a single-core host the multi-thread
// throughput numbers measure lost-interleaving overhead rather than
// parallel speedup; the single-thread phases carry the cache-effect claim.
//
// Output: the usual tables, plus machine-readable BENCH_memory_layout.json.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lf/core/fr_skiplist.h"
#include "lf/harness/bench_env.h"
#include "lf/harness/json_writer.h"
#include "lf/harness/table.h"
#include "lf/instrument/counters.h"
#include "lf/mem/pool.h"
#include "lf/reclaim/epoch.h"
#include "lf/util/random.h"
#include "lf/util/timer.h"
#include "lf/workload/runner.h"

namespace {

using lf::harness::Table;
using lf::mem::PoolTotals;
using lf::mem::pool_totals;

template <typename Alloc>
using SkipList = lf::FRSkipList<long, long, std::less<long>,
                                lf::reclaim::EpochReclaimer, 24, Alloc>;

// Allocator traffic attributable to one measured region, for either
// allocation policy. "blocks" counts blocks handed to the structure;
// "global hits" counts round-trips to the global allocator (the expensive,
// lock-taking path the pool amortizes away).
struct AllocDelta {
  std::uint64_t blocks = 0;
  std::uint64_t global_hits = 0;
};

AllocDelta alloc_delta(const PoolTotals& before) {
  const PoolTotals d = pool_totals() - before;
  AllocDelta out;
  out.blocks = d.fresh_blocks + d.recycled_blocks + d.oversize + d.heap_allocs;
  out.global_hits = d.global_hits() + d.heap_allocs;
  return out;
}

struct PhaseResult {
  double seconds = 0;
  double mops = 0;
  double steps_per_op = 0;
  double blocks_per_op = 0;
  double hits_per_op = 0;
  double bytes_per_tower = 0;  // build only: mean block, in whole lines
};

// Phase 1: build a set of kBuildKeys distinct keys, single thread, shuffled
// order. blocks/op here is the allocations-per-insert claim: exactly 1.
constexpr std::size_t kBuildKeys = 200'000;

std::vector<long> shuffled_keys(std::size_t n, std::uint64_t seed) {
  std::vector<long> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = static_cast<long>(i);
  lf::Xoshiro256 rng(seed);
  for (std::size_t i = n; i > 1; --i)
    std::swap(keys[i - 1], keys[rng.below(i)]);
  return keys;
}

template <typename Set>
PhaseResult build_phase(Set& set, const std::vector<long>& keys) {
  const PoolTotals mem_before = pool_totals();
  const auto steps_before = lf::stats::aggregate();
  lf::Stopwatch clock;
  for (long k : keys) set.insert(k, k);
  PhaseResult r;
  r.seconds = clock.elapsed_seconds();
  const auto steps = lf::stats::aggregate() - steps_before;
  const auto mem = alloc_delta(mem_before);
  const auto n = static_cast<double>(keys.size());
  r.mops = n / r.seconds / 1e6;
  r.steps_per_op = static_cast<double>(steps.essential_steps()) / n;
  r.blocks_per_op = static_cast<double>(mem.blocks) / n;
  r.hits_per_op = static_cast<double>(mem.global_hits) / n;
  // Every tower is fully built here (one thread), so observed height is the
  // planned height and the census prices every block.
  double bytes = 0;
  for (const auto& [h, count] : set.census().height_counts) {
    const std::size_t lines = (Set::Node::bytes(h) + 63) / 64;
    bytes += static_cast<double>(lines * 64 * count);
  }
  r.bytes_per_tower = bytes / n;
  return r;
}

// Phase 2: single-thread random searches over the built set — the
// pointer-chasing workload where node placement (pool segments vs heap
// spread) shows up as wall-clock.
template <typename Set>
PhaseResult search_phase(const Set& set, std::uint64_t seed) {
  constexpr std::size_t kSearches = 400'000;
  lf::Xoshiro256 rng(seed);
  const auto steps_before = lf::stats::aggregate();
  lf::Stopwatch clock;
  for (std::size_t i = 0; i < kSearches; ++i)
    set.contains(static_cast<long>(rng.below(kBuildKeys)));
  PhaseResult r;
  r.seconds = clock.elapsed_seconds();
  const auto steps = lf::stats::aggregate() - steps_before;
  r.mops = static_cast<double>(kSearches) / r.seconds / 1e6;
  r.steps_per_op =
      static_cast<double>(steps.essential_steps()) / kSearches;
  return r;
}

// Phase 3: multi-thread churn on a small key range — every erase retires a
// tower whose block the pool recycles into a subsequent insert, so this is
// where pooled allocation pays (or would break, if reuse were not
// epoch-safe).
template <typename Set>
PhaseResult churn_phase(Set& set) {
  lf::workload::RunConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 150'000;
  cfg.key_space = 2048;
  cfg.prefill = 1024;
  cfg.mix = {45, 45};
  cfg.seed = 17;
  cfg.measure_contention = false;
  lf::workload::prefill(set, cfg);
  const PoolTotals mem_before = pool_totals();
  const auto res = lf::workload::run_workload(set, cfg);
  const auto mem = alloc_delta(mem_before);
  PhaseResult r;
  r.seconds = res.seconds;
  r.mops = res.mops_per_sec();
  r.steps_per_op = res.steps_per_op();
  r.blocks_per_op =
      static_cast<double>(mem.blocks) / static_cast<double>(res.total_ops);
  r.hits_per_op = static_cast<double>(mem.global_hits) /
                  static_cast<double>(res.total_ops);
  return r;
}

struct ConfigResult {
  const char* name;
  PhaseResult build, search, churn;
};

template <typename Alloc>
ConfigResult run_config() {
  ConfigResult out{Alloc::kName, {}, {}, {}};
  const auto keys = shuffled_keys(kBuildKeys, 0x5eed);
  {
    SkipList<Alloc> set;
    out.build = build_phase(set, keys);
    out.search = search_phase(set, 0xfeed);
  }
  {
    SkipList<Alloc> set;
    out.churn = churn_phase(set);
  }
  // Both sets retired everything into the global domain; drain so the next
  // config starts from a clean slate (and pooled configs return blocks).
  lf::reclaim::EpochDomain::global().drain();
  return out;
}

void emit_json(const std::vector<ConfigResult>& results) {
  lf::harness::JsonWriter j;
  j.begin_object();
  j.field("experiment", "E11 memory layout");
  j.field("build_keys", static_cast<std::uint64_t>(kBuildKeys));
  j.key("configs").begin_array();
  for (const auto& c : results) {
    j.begin_object();
    j.field("alloc", c.name);
    const auto phase = [&](const char* name, const PhaseResult& p,
                           bool alloc_cols) {
      j.key(name).begin_object();
      j.field("seconds", p.seconds);
      j.field("mops_per_sec", p.mops);
      j.field("essential_steps_per_op", p.steps_per_op);
      if (alloc_cols) {
        j.field("blocks_per_op", p.blocks_per_op);
        j.field("global_allocator_hits_per_op", p.hits_per_op);
      }
      if (p.bytes_per_tower > 0) j.field("bytes_per_tower", p.bytes_per_tower);
      j.end_object();
    };
    phase("build", c.build, true);
    phase("search", c.search, false);
    phase("churn", c.churn, true);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::ofstream f("BENCH_memory_layout.json");
  f << j.str() << "\n";
  std::cout << "wrote BENCH_memory_layout.json\n";
}

}  // namespace

int main() {
  lf::harness::print_environment(
      "E11 (memory layer)",
      "one block per tower; pooled allocation removes the allocator "
      "round-trips and heap spread; essential steps/op must not move");

  std::vector<ConfigResult> results;
  results.push_back(run_config<lf::mem::HeapAlloc>());
  results.push_back(run_config<lf::mem::PoolAlloc>());  // default

  lf::harness::print_section(
      "(a) build: 200k distinct inserts, 1 thread (blocks/op = allocations "
      "per insert)");
  Table build({"alloc", "Mops/s", "steps/op", "blocks/op", "global hits/op",
               "bytes/tower"});
  for (const auto& c : results)
    build.add_row({c.name, Table::num(c.build.mops, 3),
                   Table::num(c.build.steps_per_op, 2),
                   Table::num(c.build.blocks_per_op, 3),
                   Table::num(c.build.hits_per_op, 5),
                   Table::num(c.build.bytes_per_tower, 1)});
  build.print();

  lf::harness::print_section("(b) search: 400k random contains, 1 thread");
  Table search({"alloc", "Mops/s", "steps/op"});
  for (const auto& c : results)
    search.add_row({c.name, Table::num(c.search.mops, 3),
                    Table::num(c.search.steps_per_op, 2)});
  search.print();

  lf::harness::print_section(
      "(c) churn: 4 threads, 45i/45d/10s, 2048 keys (recycle pressure)");
  Table churn({"alloc", "Mops/s", "steps/op", "blocks/op", "global hits/op"});
  for (const auto& c : results)
    churn.add_row({c.name, Table::num(c.churn.mops, 3),
                   Table::num(c.churn.steps_per_op, 2),
                   Table::num(c.churn.blocks_per_op, 3),
                   Table::num(c.churn.hits_per_op, 5)});
  churn.print();

  std::cout << "Expected shape: steps/op identical down each column (the\n"
               "algorithm is unchanged); blocks/op is 1.000 per build insert;\n"
               "pool drives global hits/op to ~0 and leads the wall-clock\n"
               "columns; bytes/tower is the same for both allocators.\n\n";

  emit_json(results);
  return 0;
}
