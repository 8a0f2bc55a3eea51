#include "lf/harness/watchdog.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "lf/chaos/chaos.h"
#include "lf/reclaim/epoch.h"

namespace lf::harness {

Watchdog::Watchdog(int threads, Options opts)
    : slots_(new Slot[static_cast<std::size_t>(threads)]),
      threads_(threads),
      opts_(std::move(opts)) {
  if (!opts_.on_stall) {
    opts_.on_stall = [](const std::string& report) {
      std::fputs(report.c_str(), stderr);
      std::fflush(stderr);
      std::abort();
    };
  }
  monitor_ = std::thread([this] { monitor_loop(); });
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() {
  bool first;
  {
    // Set under the monitor's mutex, so its wait cannot miss the wake-up.
    std::lock_guard lock(stop_mu_);
    first = !stop_.exchange(true, std::memory_order_acq_rel);
  }
  stop_cv_.notify_all();
  if (first) {
    if (monitor_.joinable()) monitor_.join();
  } else if (monitor_.joinable()) {
    // A second caller racing the first: the exchange loser must not
    // return while the monitor might still run. join() from two threads
    // is UB, so only the exchange winner joins; everyone else spins
    // until it finishes. In practice stop() is called once.
    while (monitor_.joinable()) std::this_thread::yield();
  }
}

std::string Watchdog::dump() const {
  std::ostringstream out;
  out << "=== watchdog: per-thread progress ===\n";
  for (int t = 0; t < threads_; ++t) {
    const Slot& s = slots_[static_cast<std::size_t>(t)];
    out << "  thread " << t << ": beats="
        << s.beats.load(std::memory_order_relaxed)
        << (s.done.load(std::memory_order_acquire) ? " done" : "")
        << (s.parked.load(std::memory_order_acquire) ? " parked" : "")
        << "\n";
  }
#if LF_CHAOS
  out << "=== chaos: per-thread injection state ===\n";
  for (const chaos::ThreadReport& r : chaos::thread_reports()) {
    out << "  tag=" << r.tag << " role=" << static_cast<int>(r.role)
        << (r.parked ? " PARKED" : "") << " last_site="
        << chaos::site_name(r.last_site) << " streak=" << r.same_site_streak
        << " points=" << r.points << " backlink_steps=" << r.backlink_steps
        << "\n";
  }
#endif
  return out.str();
}

void Watchdog::monitor_loop() {
  using Clock = std::chrono::steady_clock;
  std::vector<std::uint64_t> last(static_cast<std::size_t>(threads_), 0);
  std::vector<Clock::time_point> moved(static_cast<std::size_t>(threads_),
                                       Clock::now());
  std::vector<bool> escalated(static_cast<std::size_t>(threads_), false);
  const bool can_escalate = static_cast<bool>(opts_.on_stall_report) ||
                            static_cast<bool>(opts_.remediate) ||
                            opts_.epoch_domain != nullptr;
  for (;;) {
    {
      // One poll interval, cut short by stop().
      std::unique_lock lock(stop_mu_);
      if (stop_cv_.wait_for(lock, opts_.poll_interval, [this] {
            return stop_.load(std::memory_order_acquire);
          })) {
        return;
      }
    }
    const auto now = Clock::now();
    for (int t = 0; t < threads_; ++t) {
      const auto i = static_cast<std::size_t>(t);
      const Slot& s = slots_[i];
      const std::uint64_t b = s.beats.load(std::memory_order_relaxed);
      if (b != last[i] || s.done.load(std::memory_order_acquire) ||
          s.parked.load(std::memory_order_acquire)) {
        last[i] = b;
        moved[i] = now;
        escalated[i] = false;  // progress forgives: the ladder restarts
        continue;
      }
      if (now - moved[i] < opts_.stall_timeout) continue;
      if (can_escalate && !escalated[i]) {
        // Rung 1 of the ladder: structured report, then remediation, then
        // a full fresh stall window for it to take effect. Only a thread
        // that stays frozen through that second window reaches on_stall.
        escalated[i] = true;
        StallReport report;
        report.thread = t;
        report.stalled_for =
            std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                                  moved[i]);
        std::ostringstream head;
        head << "watchdog: thread " << t << " made no progress for "
             << report.stalled_for.count() << " ms; escalating\n";
        report.details = head.str() + dump();
        if (opts_.epoch_domain != nullptr) {
          report.details += opts_.epoch_domain->stall_report();
        }
        escalations_.fetch_add(1, std::memory_order_acq_rel);
        if (opts_.on_stall_report) opts_.on_stall_report(report);
        if (opts_.remediate) {
          opts_.remediate();
        } else if (opts_.epoch_domain != nullptr) {
          opts_.epoch_domain->remediate_now();
        }
        moved[i] = now;
        continue;
      }
      stalled_.store(true, std::memory_order_release);
      std::ostringstream head;
      head << "watchdog: thread " << t << " made no progress for "
           << std::chrono::duration_cast<std::chrono::milliseconds>(
                  now - moved[i])
                  .count()
           << " ms" << (can_escalate ? " after remediation" : "") << "\n";
      std::string details = head.str() + dump();
      if (opts_.epoch_domain != nullptr) {
        details += opts_.epoch_domain->stall_report();
      }
      opts_.on_stall(details);
      return;  // one report per run; handler usually aborts anyway
    }
  }
}

}  // namespace lf::harness
