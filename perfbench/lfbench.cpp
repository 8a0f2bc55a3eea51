// lfbench: closed-loop benchmark of the library's default public types,
// lf::FRSkipList<long, long> and lf::FRList<long, long>.
//
// One process runs one workload (see README.md for why each exists):
//
//   lfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-out FILE] [--setup-only]
//
// Every worker thread issues its next call only after the previous one
// returned. Inputs come from gen.h, seeded by --seed and generated before
// the structure is built, so no generation cost is timed. The timed region
// is cut into half-second slices; each end-to-end figure is the median over
// slices, which keeps one descheduled slice from moving it.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
// traced slices: traced slices read the calling thread's step counters
// around every call and keep every kTraceEvery-th call as a span, and the
// main thread samples pool totals, epoch and retire backlog. The per-layer
// metrics come from the traced slices only; trace.overhead_frac compares the
// two kinds of slice.
//
// --setup-only builds and prefills the structure, prints setup_s and exits;
// run.py uses it to take several cold set-up samples per run.
//
// Correctness (reported as failed calls): a scan that yields a key out of
// order or outside [lo, hi); and, at quiescence after the timed region, a
// failed validate(), size() != prefill + inserts - erases, and any key whose
// presence disagrees with the successful inserts and erases made on it.
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gen.h"
#include "lf/core/fr_list.h"
#include "lf/core/fr_skiplist.h"
#include "lf/instrument/counters.h"
#include "lf/mem/pool.h"
#include "lf/reclaim/epoch.h"
#include "loghist.h"

namespace perfbench {
namespace {

using SkipList = lf::FRSkipList<long, long>;
using List = lf::FRList<long, long>;

enum class Structure { kSkipList, kList };

struct Workload {
  const char* name;
  Structure structure;
  std::uint64_t key_space;
  std::uint64_t live;  // prefill size
  Dist dist;
  Mix mix;
  std::uint64_t scan_width;
  unsigned threads;
};

constexpr std::uint64_t kRangeWidth = 64;   // repeated-range window
constexpr std::uint64_t kRangeDwell = 256;  // draws per window
constexpr double kZipfTheta = 0.99;

constexpr Workload kWorkloads[] = {
    {"lookup-large", Structure::kSkipList, 512 * 1024, 256 * 1024,
     Dist::kUniform, {5, 5, 0}, 0, 4},
    {"churn-hot", Structure::kSkipList, 16 * 1024, 8 * 1024,
     Dist::kScrambledZipf, {25, 25, 0}, 0, 4},
    {"scan-mix", Structure::kSkipList, 256 * 1024, 128 * 1024,
     Dist::kUniform, {10, 10, 10}, 100, 4},
    {"list-local", Structure::kList, 2 * 1024, 1024, Dist::kRepeatedRange,
     {10, 10, 0}, 0, 1},
};

// Calls per thread stream; workers cycle through it.
constexpr std::uint64_t kStreamLen = std::uint64_t{1} << 20;
constexpr double kSliceSeconds = 0.5;
// Traced slices keep one span per kTraceEvery calls per thread, and at most
// kMaxSpansPerThread spans per thread.
constexpr std::uint64_t kTraceEvery = 64;
constexpr std::size_t kMaxSpansPerThread = 200000;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double rss_bytes() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

constexpr int kKinds = 4;
const char* const kKindNames[kKinds] = {"contains", "insert", "erase", "scan"};

struct SliceRec {
  LogHist read;   // contains
  LogHist write;  // insert and erase, successful or not
  LogHist scan;
  std::uint64_t calls = 0;
};

struct Span {
  std::uint64_t seq;
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t steps;  // essential-step delta across the call
  OpKind kind;
};

struct alignas(64) Worker {
  std::vector<std::uint64_t> stream;
  std::vector<SliceRec> slices;      // [0] = warm-up
  std::vector<std::int32_t> delta;   // per key: successful inserts - erases
  std::atomic<std::uint64_t> attempted{0};  // single writer; read by main
  std::uint64_t inserted = 0;
  std::uint64_t erased = 0;
  std::uint64_t bad_scans = 0;
  // Traced slices only.
  std::array<lf::stats::Snapshot, kKinds> steps{};
  std::array<std::uint64_t, kKinds> busy_ns{};
  std::array<std::uint64_t, kKinds> calls{};
  std::array<std::uint64_t, kKinds> succeeded{};
  std::uint64_t scan_keys = 0;
  std::uint64_t seq = 0;
  std::vector<Span> spans;
  std::uint64_t run_start = 0;
  std::uint64_t run_end = 0;
  std::thread thread;
};

struct Control {
  std::atomic<int> go{0};
  std::atomic<std::uint32_t> slice{0};
  std::atomic<bool> stop{false};
  bool trace = false;
};

// Traced slices are the even timed slices 2, 4, ...; slice 0 is warm-up.
bool traced_slice(const Control& c, std::uint32_t s) noexcept {
  return c.trace && s != 0 && s % 2 == 0;
}

template <typename Set>
constexpr bool kHasRange = requires(const Set& s) {
  s.for_each_range(0L, 0L, [](const long&, const long&) {});
};

template <bool kTraced, typename Set>
inline void do_call(Set& set, const Workload& wl, Worker& w, SliceRec& rec,
                    std::uint64_t word) {
  const OpKind kind = kind_of(word);
  const long key = static_cast<long>(key_of(word));
  lf::stats::Snapshot s0;
  if constexpr (kTraced) s0 = lf::stats::tls().read();
  std::uint64_t scanned = 0;
  bool ok = true;
  const std::uint64_t t0 = now_ns();
  switch (kind) {
    case OpKind::kContains:
      ok = set.contains(key);
      break;
    case OpKind::kInsert:
      ok = set.insert(key, key);
      if (ok) {
        ++w.inserted;
        ++w.delta[static_cast<std::size_t>(key)];
      }
      break;
    case OpKind::kErase:
      ok = set.erase(key);
      if (ok) {
        ++w.erased;
        --w.delta[static_cast<std::size_t>(key)];
      }
      break;
    case OpKind::kScan:
      if constexpr (kHasRange<Set>) {
        const long hi = key + static_cast<long>(wl.scan_width);
        long prev = key - 1;
        set.for_each_range(key, hi, [&](const long& k, const long&) {
          ok = ok && k > prev && k >= key && k < hi;
          prev = k;
          ++scanned;
        });
        w.bad_scans += !ok;
      }
      break;
  }
  const std::uint64_t t1 = now_ns();
  const std::uint64_t ns = t1 - t0;
  ++rec.calls;
  switch (kind) {
    case OpKind::kContains: rec.read.record(ns); break;
    case OpKind::kScan: rec.scan.record(ns); break;
    default: rec.write.record(ns); break;
  }
  if constexpr (kTraced) {
    const lf::stats::Snapshot d = lf::stats::tls().read() - s0;
    const auto k = static_cast<std::size_t>(kind);
    w.steps[k] += d;
    w.busy_ns[k] += ns;
    ++w.calls[k];
    w.succeeded[k] += ok;
    w.scan_keys += scanned;
    if (w.seq++ % kTraceEvery == 0 && w.spans.size() < kMaxSpansPerThread)
      w.spans.push_back(Span{w.seq - 1, t0, t1, d.essential_steps(), kind});
  }
}

// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

template <typename Set>
void worker_main(Set& set, const Workload& wl, Worker& w, Control& c) {
  // On a shared host one vCPU can run 20-25% slower than another at the same
  // moment. A lone worker therefore moves to the next allowed CPU at every
  // slice, so that the median over slices does not depend on which vCPU the
  // run happened to land on. Runs with one worker per vCPU use them all at
  // once already.
  const std::vector<int> cpus =
      wl.threads == 1 ? allowed_cpus() : std::vector<int>{};
  std::uint32_t pinned_slice = ~0u;
  c.go.wait(0, std::memory_order_acquire);
  w.run_start = now_ns();
  const std::size_t n = w.stream.size();
  std::size_t i = 0;
  std::uint64_t attempted = 0;
  while (!c.stop.load(std::memory_order_relaxed)) {
    const std::uint32_t s = c.slice.load(std::memory_order_relaxed);
    if (cpus.size() > 1 && s != pinned_slice) {
      pin_to(cpus[s % cpus.size()]);
      pinned_slice = s;
    }
    SliceRec& rec = w.slices[s];
    const std::uint64_t word = w.stream[i];
    if (++i == n) i = 0;
    if (traced_slice(c, s)) {
      do_call<true>(set, wl, w, rec, word);
    } else {
      do_call<false>(set, wl, w, rec, word);
    }
    w.attempted.store(++attempted, std::memory_order_relaxed);
  }
  w.run_end = now_ns();
}

struct PhaseSample {
  lf::mem::PoolTotals pool;
  std::uint64_t epoch;
  std::uint64_t t;
};

PhaseSample sample_phase() {
  return {lf::mem::pool_totals(), lf::reclaim::EpochDomain::global().epoch(),
          now_ns()};
}

void print_digests(const Workload& wl, std::uint64_t seed,
                   const std::vector<std::uint64_t>& prefill,
                   const std::vector<std::unique_ptr<Worker>>& workers) {
  std::uint64_t all = digest(prefill);
  std::printf("inputs %s seed=%" PRIu64 " prefill=%016" PRIx64, wl.name, seed,
              all);
  for (std::size_t t = 0; t < workers.size(); ++t) {
    const std::uint64_t d = digest(workers[t]->stream);
    std::printf(" t%zu=%016" PRIx64, t, d);
    all = mix64(all ^ d);
  }
  std::printf(" all=%016" PRIx64 "\n", all);
}

template <typename Set>
void prefill_into(Set& set, const std::vector<std::uint64_t>& keys) {
  for (std::uint64_t k : keys)
    set.insert(static_cast<long>(k), static_cast<long>(k));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

template <typename Set>
int setup_only(const Workload& wl, std::uint64_t seed) {
  const std::vector<std::uint64_t> prefill =
      make_prefill(seed, wl.key_space, wl.live);
  const std::uint64_t t0 = now_ns();
  auto set = std::make_unique<Set>();
  prefill_into(*set, prefill);
  const double setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  std::printf("{\"setup_s\": %.17g}\n", setup_s);
  return 0;
}

// Times in the file are ns from the start of set-up.
void write_trace(const std::string& path, const Workload& wl,
                 std::uint64_t seed, std::uint64_t setup_start,
                 std::uint64_t setup_end,
                 std::uint64_t teardown_start, std::uint64_t teardown_end,
                 const std::vector<std::unique_ptr<Worker>>& workers) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "lfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  auto rel = [setup_start](std::uint64_t t) { return t - setup_start; };
  out << "{\"workload\": \"" << wl.name << "\", \"seed\": " << seed
      << ", \"sample_every\": " << kTraceEvery
      << ", \"time_unit\": \"ns\",\n\"spans\": [\n";
  out << "{\"id\": \"setup\", \"parent\": null, \"start\": "
      << rel(setup_start) << ", \"end\": " << rel(setup_end) << "},\n";
  for (std::size_t t = 0; t < workers.size(); ++t) {
    out << "{\"id\": \"run.t" << t << "\", \"parent\": null, \"start\": "
        << rel(workers[t]->run_start) << ", \"end\": "
        << rel(workers[t]->run_end) << "},\n";
  }
  out << "{\"id\": \"teardown\", \"parent\": null, \"start\": "
      << rel(teardown_start) << ", \"end\": " << rel(teardown_end)
      << "}],\n";
  // Call spans: [thread, seq, op, start, end, essential steps]; the parent
  // of each is that thread's run span "run.t<thread>".
  out << "\"calls_columns\": [\"thread\", \"seq\", \"op\", \"start\", "
         "\"end\", \"steps\"],\n\"calls\": [\n";
  bool first = true;
  for (std::size_t t = 0; t < workers.size(); ++t) {
    for (const Span& s : workers[t]->spans) {
      out << (first ? "" : ",\n") << "[" << t << "," << s.seq << ",\""
          << kKindNames[static_cast<int>(s.kind)] << "\"," << rel(s.start)
          << "," << rel(s.end) << "," << s.steps << "]";
      first = false;
    }
  }
  out << "\n]}\n";
}

template <typename Set>
int run(const Workload& wl, std::uint64_t seed, double seconds, bool trace,
        const std::string& trace_out) {
  // ---- Inputs (untimed, before the RSS baseline) ------------------------
  std::unique_ptr<ScrambledZipf> zipf;
  if (wl.dist == Dist::kScrambledZipf)
    zipf = std::make_unique<ScrambledZipf>(wl.key_space, kZipfTheta, seed);
  const std::vector<std::uint64_t> prefill =
      make_prefill(seed, wl.key_space, wl.live);
  const std::uint32_t nslices = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(seconds / kSliceSeconds + 0.5) & ~1u);
  const double slice_s = seconds / nslices;
  const double warmup_s = std::clamp(seconds / 10, 0.2, 2.0);

  Control c;
  c.trace = trace;
  std::vector<std::unique_ptr<Worker>> workers;
  for (unsigned t = 0; t < wl.threads; ++t) {
    auto w = std::make_unique<Worker>();
    w->stream = make_stream(seed, t, kStreamLen, wl.dist, wl.key_space,
                            zipf.get(), kRangeWidth, kRangeDwell, wl.mix,
                            wl.scan_width);
    w->slices.resize(nslices + 1);
    w->delta.assign(wl.key_space, 0);
    if (trace) w->spans.reserve(kMaxSpansPerThread);
    workers.push_back(std::move(w));
  }
  print_digests(wl, seed, prefill, workers);

  // ---- Set-up: construction + prefill ------------------------------------
  const double rss0 = rss_bytes();
  const PhaseSample before_setup = sample_phase();
  const std::uint64_t setup_start = now_ns();
  auto set = std::make_unique<Set>();
  prefill_into(*set, prefill);
  const std::uint64_t setup_end = now_ns();
  const double setup_s = static_cast<double>(setup_end - setup_start) * 1e-9;
  const PhaseSample after_setup = sample_phase();

  for (auto& w : workers) {
    w->thread = std::thread(worker_main<Set>, std::ref(*set), std::cref(wl),
                            std::ref(*w), std::ref(c));
  }

  // ---- Warm-up, then the timed slices -----------------------------------
  std::vector<PhaseSample> at(nslices + 2);
  std::uint64_t backlog_peak = 0;
  auto& domain = lf::reclaim::EpochDomain::global();
  using Clock = std::chrono::steady_clock;
  auto after = [](Clock::time_point base, double s) {
    return base + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
  };
  auto wait_until = [&](Clock::time_point until) {
    if (!trace) {
      std::this_thread::sleep_until(until);
      return;
    }
    while (Clock::now() < until) {
      backlog_peak = std::max(backlog_peak, domain.retired_count());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::uint64_t progress_last = 0;
  auto progress = [&] {
    std::uint64_t n = 0;
    for (auto& w : workers) n += w->attempted.load(std::memory_order_relaxed);
    if (n != progress_last) {
      std::printf("progress attempted=%" PRIu64 "\n", n);
      std::fflush(stdout);
      progress_last = n;
    }
  };

  c.go.store(1, std::memory_order_release);
  c.go.notify_all();
  wait_until(after(Clock::now(), warmup_s));
  const auto timed_start = Clock::now();
  for (std::uint32_t s = 1; s <= nslices; ++s) {
    at[s] = sample_phase();
    c.slice.store(s, std::memory_order_relaxed);
    progress();
    wait_until(after(timed_start, slice_s * s));
  }
  at[nslices + 1] = sample_phase();
  const double rss1 = rss_bytes();
  c.stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w->thread.join();
  progress();

  // ---- Quiescent correctness checks --------------------------------------
  std::uint64_t attempted = 0, inserted = 0, erased = 0, bad_scans = 0;
  std::vector<std::int64_t> net(wl.key_space, 0);
  for (auto& w : workers) {
    attempted += w->attempted.load(std::memory_order_relaxed);
    inserted += w->inserted;
    erased += w->erased;
    bad_scans += w->bad_scans;
    for (std::size_t k = 0; k < wl.key_space; ++k) net[k] += w->delta[k];
  }
  for (std::uint64_t k : prefill) net[k] += 1;
  std::uint64_t failed = bad_scans;
  const auto report = set->validate();
  if (!report.ok) {
    std::printf("check validate() failed: %s\n", report.error.c_str());
    failed = attempted;
  }
  const std::uint64_t expect = wl.live + inserted - erased;
  const std::uint64_t size = set->size();
  if (size != expect) {
    std::printf("check size() = %" PRIu64 ", expected %" PRIu64 "\n", size,
                expect);
    failed += size > expect ? size - expect : expect - size;
  }
  std::vector<char> present(wl.key_space, 0);
  set->for_each([&](const long& k, const long&) {
    if (k >= 0 && static_cast<std::uint64_t>(k) < wl.key_space)
      present[static_cast<std::size_t>(k)] = 1;
  });
  std::uint64_t wrong_keys = 0;
  for (std::size_t k = 0; k < wl.key_space; ++k)
    wrong_keys += net[k] != present[k];
  if (wrong_keys) {
    std::printf("check %" PRIu64 " keys disagree with their inserts/erases\n",
                wrong_keys);
    failed += wrong_keys;
  }
  if (bad_scans)
    std::printf("check %" PRIu64 " scans out of order or range\n", bad_scans);
  failed = std::min(failed, attempted);

  // ---- Teardown: destruction + drain -------------------------------------
  const std::uint64_t teardown_start = now_ns();
  set.reset();
  domain.drain();
  const std::uint64_t teardown_end = now_ns();

  // ---- Per-slice end-to-end figures --------------------------------------
  std::vector<double> mops[2], rp50, rp99, wp50, wp99, sp50, sp99;
  std::uint64_t n_read = 0, n_write = 0, n_scan = 0;
  for (std::uint32_t s = 1; s <= nslices; ++s) {
    SliceRec merged;
    for (auto& w : workers) {
      merged.read.merge(w->slices[s].read);
      merged.write.merge(w->slices[s].write);
      merged.scan.merge(w->slices[s].scan);
      merged.calls += w->slices[s].calls;
    }
    const double dt = static_cast<double>(at[s + 1].t - at[s].t) * 1e-9;
    mops[traced_slice(c, s)].push_back(static_cast<double>(merged.calls) /
                                       dt * 1e-6);
    if (traced_slice(c, s)) continue;
    n_read += merged.read.count();
    n_write += merged.write.count();
    n_scan += merged.scan.count();
    rp50.push_back(merged.read.quantile(0.50));
    rp99.push_back(merged.read.quantile(0.99));
    wp50.push_back(merged.write.quantile(0.50));
    wp99.push_back(merged.write.quantile(0.99));
    if (merged.scan.count()) {
      sp50.push_back(merged.scan.quantile(0.50));
      sp99.push_back(merged.scan.quantile(0.99));
    }
  }
  const double untraced_mops = median(mops[0]);
  for (int traced = 0; traced < 2; ++traced) {
    if (mops[traced].empty()) continue;
    std::printf("slice throughput (%s, Mops/s):",
                traced ? "traced" : "untraced");
    for (double m : mops[traced]) std::printf(" %.3f", m);
    std::printf("\n");
  }
  std::printf("run %s threads=%u slices=%u slice_s=%.3f warmup_s=%.3f "
              "attempted=%" PRIu64 " inserted=%" PRIu64 " erased=%" PRIu64
              " size=%" PRIu64 "\n",
              wl.name, wl.threads, nslices, slice_s, warmup_s, attempted,
              inserted, erased, size);
  // Figures that are not metrics in BENCHMARK.json: latency sample counts,
  // scan latency (scan-mix only) and the error rate. run.py keeps them in
  // its result rows.
  std::printf("extra {\"read_samples\": %" PRIu64
              ", \"write_samples\": %" PRIu64 ", \"scan_samples\": %" PRIu64,
              n_read, n_write, n_scan);
  if (n_scan) {
    std::printf(", \"scan_p50_ns\": %.1f, \"scan_p99_ns\": %.1f", median(sp50),
                median(sp99));
  }
  std::printf(", \"error_rate\": %.6g}\n",
              static_cast<double>(failed) /
                  static_cast<double>(std::max<std::uint64_t>(attempted, 1)));

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"throughput_mops", untraced_mops, "Mops/s"},
        {"read_p50_ns", median(rp50), "ns"},
        {"read_p99_ns", median(rp99), "ns"},
        {"write_p50_ns", median(wp50), "ns"},
        {"write_p99_ns", median(wp99), "ns"},
        {"setup_s", setup_s, "s"},
        {"rss_mb", (rss1 - rss0) / 1e6, "MB"},
    };
    print_result(failed == 0, attempted, failed, metrics);
    return 0;
  }

  // ---- Per-layer figures from the traced slices --------------------------
  lf::stats::Snapshot by_kind[kKinds];
  std::uint64_t busy[kKinds] = {}, calls[kKinds] = {}, scan_keys = 0;
  std::uint64_t n_inserted = 0;
  for (auto& w : workers) {
    for (int k = 0; k < kKinds; ++k) {
      by_kind[k] += w->steps[k];
      busy[k] += w->busy_ns[k];
      calls[k] += w->calls[k];
    }
    n_inserted += w->succeeded[1];
    scan_keys += w->scan_keys;
  }
  lf::stats::Snapshot all, writes;
  for (int k = 0; k < kKinds; ++k) all += by_kind[k];
  writes += by_kind[1];
  writes += by_kind[2];
  lf::mem::PoolTotals pool{};
  std::uint64_t epochs = 0;
  for (std::uint32_t s = 1; s <= nslices; ++s) {
    if (!traced_slice(c, s)) continue;
    const lf::mem::PoolTotals d = at[s + 1].pool - at[s].pool;
    pool.requests += d.requests;
    pool.fresh_blocks += d.fresh_blocks;
    pool.recycled_blocks += d.recycled_blocks;
    pool.segments += d.segments;
    pool.oversize += d.oversize;
    epochs += at[s + 1].epoch - at[s].epoch;
  }
  const lf::mem::PoolTotals setup_pool = after_setup.pool - before_setup.pool;
  const lf::mem::PoolTotals run_pool = at[nslices + 1].pool -
                                       before_setup.pool;
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const double n_all = static_cast<double>(calls[0] + calls[1] + calls[2] +
                                           calls[3]);
  const double n_writes = static_cast<double>(calls[1] + calls[2]);
  auto busy_of = [&](int k) {
    return ratio(static_cast<double>(busy[k]), static_cast<double>(calls[k]));
  };
  const double traced_mops = median(mops[1]);
  metrics = {
      {"core.steps_per_op", ratio(all.essential_steps(), n_all), "steps/op"},
      {"core.read_steps_per_op",
       ratio(by_kind[0].essential_steps(), static_cast<double>(calls[0])),
       "steps/op"},
      {"core.write_steps_per_op", ratio(writes.essential_steps(), n_writes),
       "steps/op"},
      {"core.cas_per_write", ratio(writes.cas_attempt, n_writes), "cas/op"},
      {"core.helps_per_write",
       ratio(writes.help_marked + writes.help_flagged, n_writes), "helps/op"},
      {"core.cas_fail_ratio", ratio(all.cas_failures(), all.cas_attempt),
       "ratio"},
      {"core.backlinks_per_kop", ratio(1e3 * all.backlink_traversal, n_all),
       "hops/kop"},
      {"core.scan_ns_per_key",
       ratio(static_cast<double>(busy[3]), static_cast<double>(scan_keys)),
       "ns/key"},
      {"core.contains_busy_ns", busy_of(0), "ns"},
      {"core.insert_busy_ns", busy_of(1), "ns"},
      {"core.erase_busy_ns", busy_of(2), "ns"},
      {"core.scan_busy_ns", busy_of(3), "ns"},
      {"reclaim.retired_per_op", ratio(all.node_retired, n_all), "nodes/op"},
      {"reclaim.freed_ratio", ratio(all.node_freed, all.node_retired),
       "ratio"},
      {"reclaim.backlog_peak", static_cast<double>(backlog_peak), "nodes"},
      {"reclaim.epochs_per_kop", ratio(1e3 * epochs, n_all), "epochs/kop"},
      {"mem.allocs_per_insert", ratio(pool.requests, n_inserted),
       "allocs/insert"},
      {"mem.recycle_ratio",
       ratio(pool.recycled_blocks, pool.recycled_blocks + pool.fresh_blocks),
       "ratio"},
      {"mem.global_allocs_per_kop",
       ratio(1e3 * (setup_pool.global_hits() + pool.global_hits()),
             static_cast<double>(wl.live) + n_all),
       "allocs/kop"},
      {"mem.segment_mb",
       static_cast<double>(run_pool.segments * lf::mem::kSegmentBytes) / 1e6,
       "MB"},
      {"sync.finger_hit_rate", all.finger_hit_rate(), "ratio"},
      {"sync.finger_skip_per_hit", ratio(all.finger_skip, all.finger_hit),
       "levels/hit"},
      {"sync.finger_probes_per_op",
       ratio(all.finger_hit + all.finger_miss, n_all), "probes/op"},
      {"trace.overhead_frac", 1.0 - ratio(traced_mops, untraced_mops),
       "ratio"},
  };
  std::printf("shares %s: finger_hit_rate=%.4f retired_per_op=%.4f "
              "cas_failures_per_op=%.5f\n",
              wl.name, all.finger_hit_rate(), ratio(all.node_retired, n_all),
              ratio(all.cas_failures(), n_all));
  if (!trace_out.empty()) {
    write_trace(trace_out, wl, seed, setup_start, setup_end,
                teardown_start, teardown_end, workers);
    std::printf("trace written to %s (one call span per %" PRIu64
                " calls per thread)\n",
                trace_out.c_str(), kTraceEvery);
  }
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "lfbench: %s\nusage: lfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--setup-only]\n",
               msg);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string name, trace_out;
  std::optional<std::uint64_t> seed;
  double seconds = 10;
  bool trace = false, setup = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") name = value();
    else if (a == "--seed") seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(value().c_str());
    else if (a == "--trace") trace = value() == "1";
    else if (a == "--trace-out") trace_out = value();
    else if (a == "--setup-only") setup = true;
    else usage(("unknown argument " + a).c_str());
  }
  if (!seed) usage("--seed is required");
  if (!(seconds > 0 && seconds <= 120)) usage("--seconds must be in (0, 120]");
  for (const Workload& wl : kWorkloads) {
    if (name != wl.name) continue;
    if (wl.structure == Structure::kList) {
      return setup ? setup_only<List>(wl, *seed)
                   : run<List>(wl, *seed, seconds, trace, trace_out);
    }
    return setup ? setup_only<SkipList>(wl, *seed)
                 : run<SkipList>(wl, *seed, seconds, trace, trace_out);
  }
  usage(("unknown workload '" + name + "'").c_str());
}
