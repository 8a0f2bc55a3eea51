// Unit tests for the progress watchdog (compiled in every build mode),
// including the detect → report → remediate escalation ladder.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "lf/harness/watchdog.h"
#include "lf/reclaim/epoch.h"

namespace {

using namespace std::chrono_literals;
using lf::harness::Watchdog;

Watchdog::Options fast_opts(std::atomic<bool>& fired, std::string& report) {
  Watchdog::Options o;
  o.stall_timeout = 300ms;
  o.poll_interval = 50ms;
  o.on_stall = [&](const std::string& r) {
    report = r;
    fired.store(true);
  };
  return o;
}

TEST(Watchdog, NoStallWhileBeating) {
  std::atomic<bool> fired{false};
  std::string report;
  Watchdog dog(2, fast_opts(fired, report));
  for (int i = 0; i < 20; ++i) {
    dog.beat(0);
    dog.beat(1);
    std::this_thread::sleep_for(40ms);
  }
  dog.mark_done(0);
  dog.mark_done(1);
  dog.stop();
  EXPECT_FALSE(fired.load());
  EXPECT_FALSE(dog.stalled());
}

// stop() wakes the monitor instead of waiting out its poll interval, so a
// run's teardown does not cost a poll.
TEST(Watchdog, StopDoesNotWaitForThePollInterval) {
  Watchdog::Options o;
  o.poll_interval = 10s;
  Watchdog dog(1, o);
  std::this_thread::sleep_for(20ms);  // let the monitor enter its wait
  const auto t0 = std::chrono::steady_clock::now();
  dog.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
}

TEST(Watchdog, DetectsSilentThread) {
  std::atomic<bool> fired{false};
  std::string report;
  Watchdog dog(2, fast_opts(fired, report));
  // Thread 1 beats; thread 0 never does.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!fired.load() && std::chrono::steady_clock::now() < deadline) {
    dog.beat(1);
    std::this_thread::sleep_for(25ms);
  }
  dog.stop();
  ASSERT_TRUE(fired.load());
  EXPECT_TRUE(dog.stalled());
  EXPECT_NE(report.find("thread 0"), std::string::npos) << report;
  EXPECT_NE(report.find("no progress"), std::string::npos) << report;
}

TEST(Watchdog, DoneThreadsAreNotMonitored) {
  std::atomic<bool> fired{false};
  std::string report;
  Watchdog dog(1, fast_opts(fired, report));
  dog.mark_done(0);
  std::this_thread::sleep_for(600ms);
  dog.stop();
  EXPECT_FALSE(fired.load());
}

TEST(Watchdog, ParkedThreadsAreNotStalls) {
  // A chaos-parked victim is the experiment, not a failure.
  std::atomic<bool> fired{false};
  std::string report;
  Watchdog dog(1, fast_opts(fired, report));
  dog.mark_parked(0);
  std::this_thread::sleep_for(600ms);
  dog.stop();
  EXPECT_FALSE(fired.load());
}

TEST(Watchdog, DumpListsEveryThread) {
  std::atomic<bool> fired{false};
  std::string report;
  Watchdog dog(3, fast_opts(fired, report));
  dog.beat(1);
  dog.beat(1);
  dog.mark_done(2);
  const std::string d = dog.dump();
  dog.mark_done(0);
  dog.mark_done(1);
  dog.stop();
  EXPECT_NE(d.find("thread 0: beats=0"), std::string::npos) << d;
  EXPECT_NE(d.find("thread 1: beats=2"), std::string::npos) << d;
  EXPECT_NE(d.find("thread 2: beats=0 done"), std::string::npos) << d;
}

TEST(Watchdog, EscalationReportsAndRemediatesBeforeFatal) {
  // With the resilience hooks set, a stall must walk the full ladder:
  // structured report → remediation → a fresh stall window → only then the
  // fatal handler, annotated as post-remediation.
  std::atomic<int> reports{0};
  std::atomic<int> remediations{0};
  std::atomic<bool> fatal{false};
  std::string fatal_report;
  Watchdog::StallReport first;
  Watchdog::Options o;
  o.stall_timeout = 300ms;
  o.poll_interval = 50ms;
  o.on_stall = [&](const std::string& r) {
    fatal_report = r;
    fatal.store(true);
  };
  o.on_stall_report = [&](const Watchdog::StallReport& r) {
    first = r;
    reports.fetch_add(1);
  };
  o.remediate = [&] { remediations.fetch_add(1); };
  Watchdog dog(1, o);  // thread 0 never beats
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!fatal.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(25ms);
  }
  dog.stop();
  ASSERT_TRUE(fatal.load());
  EXPECT_EQ(reports.load(), 1);
  EXPECT_EQ(remediations.load(), 1);
  EXPECT_EQ(dog.escalations(), 1u);
  EXPECT_EQ(first.thread, 0);
  EXPECT_GE(first.stalled_for, 300ms);
  EXPECT_NE(first.details.find("escalating"), std::string::npos)
      << first.details;
  EXPECT_NE(fatal_report.find("after remediation"), std::string::npos)
      << fatal_report;
}

TEST(Watchdog, RemediationForgivesARevivedThread) {
  // If remediation actually unwedges the thread, the fatal handler must
  // never fire — and renewed progress resets the ladder.
  std::atomic<bool> reported{false};
  std::atomic<bool> fatal{false};
  Watchdog::Options o;
  o.stall_timeout = 300ms;
  o.poll_interval = 50ms;
  o.on_stall = [&](const std::string&) { fatal.store(true); };
  o.on_stall_report = [&](const Watchdog::StallReport&) {
    reported.store(true);
  };
  Watchdog dog(1, o);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!reported.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(25ms);
  }
  ASSERT_TRUE(reported.load());
  // "Remediation worked": the thread beats again through two full windows.
  for (int i = 0; i < 30; ++i) {
    dog.beat(0);
    std::this_thread::sleep_for(25ms);
  }
  dog.mark_done(0);
  dog.stop();
  EXPECT_FALSE(fatal.load());
  EXPECT_FALSE(dog.stalled());
}

TEST(Watchdog, EpochDomainHookReportsAndNeutralizesStalledReader) {
  // End-to-end ladder against a real domain: a reader parked while pinned
  // stalls a (never-beating) worker slot; the escalation appends the epoch
  // stall dump to the report and the default remediation —
  // EpochDomain::remediate_now() — ejects the parked pin.
  lf::reclaim::EpochDomain domain;
  lf::reclaim::EpochDomain::ResilienceOptions ro;
  ro.neutralize = true;
  ro.blame_threshold = 4;
  domain.set_resilience(ro);

  std::mutex mu;
  std::condition_variable cv;
  bool pinned = false, release = false;
  std::thread victim([&] {
    auto g = domain.guard();
    std::unique_lock lk(mu);
    pinned = true;
    cv.notify_all();
    cv.wait(lk, [&] { return release; });
  });
  {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return pinned; });
  }

  std::atomic<bool> reported{false};
  std::string details;
  Watchdog::Options o;
  o.stall_timeout = 300ms;
  o.poll_interval = 50ms;
  o.on_stall = [](const std::string&) {};  // not under test; never abort
  o.on_stall_report = [&](const Watchdog::StallReport& r) {
    details = r.details;
    reported.store(true);
  };
  o.epoch_domain = &domain;
  {
    Watchdog dog(1, o);
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (!reported.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(25ms);
    }
    dog.stop();
  }
  ASSERT_TRUE(reported.load());
  EXPECT_NE(details.find("epoch domain:"), std::string::npos) << details;
  EXPECT_NE(details.find("active=1"), std::string::npos) << details;
  EXPECT_EQ(domain.ejected_count(), 1u);  // remediation neutralized the pin

  {
    std::lock_guard lk(mu);
    release = true;
    cv.notify_all();
  }
  victim.join();
  EXPECT_EQ(domain.ejected_count(), 0u);
}

}  // namespace
