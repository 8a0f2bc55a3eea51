// Progress watchdog for multi-threaded runs.
//
// A livelocked or deadlocked workload used to hang until the CI job's
// ceiling. The watchdog turns that into a fast, diagnosable failure: each
// worker bumps a per-thread heartbeat as it completes operations, a
// monitor thread samples the heartbeats, and any live (not done, not
// deliberately parked) thread whose heartbeat stops moving for the stall
// timeout triggers a dump of per-thread progress — and, when the chaos
// layer is compiled in, each thread's current injection site, visit
// streak, and backlink-walk depth — before aborting the run.
//
// The hot path is a single relaxed increment; the monitor owns all
// clock reads.
//
// Escalation ladder (DESIGN.md §11): detection alone only diagnoses; with
// the resilience hooks set, the watchdog escalates detect → structured
// StallReport (per-thread progress, chaos state, and the epoch domain's
// per-slot pinned-epoch/backlog/quarantine dump) → remediation trigger
// (default: EpochDomain::remediate_now(), which lets the stalled-pin
// detector neutralize a dead reader) — and only if the same thread is
// still stalled a full stall_timeout AFTER remediation does the fatal
// on_stall handler fire. With no hooks set, behavior is unchanged.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace lf::reclaim {
class EpochDomain;
}

namespace lf::harness {

class Watchdog {
 public:
  // Structured first-stall report handed to on_stall_report before any
  // remediation runs.
  struct StallReport {
    int thread = -1;                        // the stalled worker index
    std::chrono::milliseconds stalled_for{0};
    std::string details;  // progress table + chaos state + epoch stall dump
  };

  struct Options {
    std::chrono::milliseconds stall_timeout{120'000};
    std::chrono::milliseconds poll_interval{250};
    // Called with the dump when a stall is detected. The default writes
    // the dump to stderr and calls std::abort() so CI fails in minutes,
    // not hours. Tests install a handler instead of aborting.
    std::function<void(const std::string&)> on_stall;

    // ---- Escalation hooks (all optional; see the header comment) ----
    // First stall of a thread: receives the structured report.
    std::function<void(const StallReport&)> on_stall_report;
    // Remediation to run after the report. When unset but epoch_domain is
    // set, defaults to epoch_domain->remediate_now().
    std::function<void()> remediate;
    // Domain whose stall_report() is appended to StallReport::details and
    // whose remediate_now() is the default remediation.
    reclaim::EpochDomain* epoch_domain = nullptr;
  };

  Watchdog(int threads, Options opts);
  explicit Watchdog(int threads) : Watchdog(threads, Options{}) {}
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Hot path: thread `idx` made progress (completed an operation).
  void beat(int idx) noexcept {
    slots_[static_cast<std::size_t>(idx)].beats.fetch_add(
        1, std::memory_order_relaxed);
  }

  // Thread `idx` finished its workload; it is no longer monitored.
  void mark_done(int idx) noexcept {
    slots_[static_cast<std::size_t>(idx)].done.store(
        true, std::memory_order_release);
  }

  // Thread `idx` is parked on purpose (chaos crash injection); a stalled
  // victim is the experiment, not a failure.
  void mark_parked(int idx, bool parked = true) noexcept {
    slots_[static_cast<std::size_t>(idx)].parked.store(
        parked, std::memory_order_release);
  }

  // Stop monitoring (idempotent; the destructor calls it). Wakes the
  // monitor at once rather than after its current poll interval.
  void stop();

  bool stalled() const noexcept {
    return stalled_.load(std::memory_order_acquire);
  }

  // How many first-stall escalations (report + remediation) have fired.
  std::uint64_t escalations() const noexcept {
    return escalations_.load(std::memory_order_acquire);
  }

  // The per-thread progress table the stall handler receives; exposed for
  // tests and for callers that dump state on their own terms.
  std::string dump() const;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> beats{0};
    std::atomic<bool> done{false};
    std::atomic<bool> parked{false};
  };

  void monitor_loop();

  std::unique_ptr<Slot[]> slots_;
  int threads_;
  Options opts_;
  std::atomic<bool> stop_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  std::atomic<bool> stalled_{false};
  std::atomic<std::uint64_t> escalations_{0};
  std::thread monitor_;
};

}  // namespace lf::harness
