// Unit test for LogHist (loghist.h). Exits non-zero on the first failure.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "loghist.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, double got = 0, double want = 0) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s (got %.17g, want %.17g)\n", what, got, want);
    ++failures;
  }
}

using perfbench::LogHist;

void test_bucket_edges() {
  // Bucket i covers [lower(i), upper(i)); the edges tile the value range.
  for (std::size_t i = 0; i + 1 < LogHist::kBuckets; ++i) {
    const std::uint64_t lo = LogHist::lower(i), hi = LogHist::upper(i);
    expect(hi > lo, "bucket is non-empty", double(hi), double(lo));
    expect(LogHist::index(lo) == i, "lower edge maps to its bucket",
           double(LogHist::index(lo)), double(i));
    expect(LogHist::index(hi - 1) == i, "last value maps to its bucket",
           double(LogHist::index(hi - 1)), double(i));
    expect(LogHist::index(hi) == i + 1, "upper edge maps to next bucket",
           double(LogHist::index(hi)), double(i + 1));
    // About 1% resolution: width / lower edge <= 1/128 from 128 ns up.
    if (lo >= LogHist::kSub) {
      expect(double(hi - lo) / double(lo) <= 1.0 / 128 + 1e-12,
             "bucket width within 1/128", double(hi - lo) / double(lo),
             1.0 / 128);
    }
  }
  expect(LogHist::index(0) == 0, "zero maps to bucket 0");
  expect(LogHist::index(~std::uint64_t{0}) == LogHist::kBuckets - 1,
         "huge values clamp to the last bucket");
}

void test_exact_small_values() {
  LogHist h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  expect(h.count() == 100, "count", double(h.count()), 100);
  expect(h.quantile(0.5) == 50, "p50 of 1..100", h.quantile(0.5), 50);
  expect(h.quantile(0.99) == 99, "p99 of 1..100", h.quantile(0.99), 99);
  expect(h.quantile(1.0) == 100, "max of 1..100", h.quantile(1.0), 100);
  expect(h.mean() == 50.5, "mean of 1..100", h.mean(), 50.5);
}

void test_microsecond_resolution() {
  // A 2.9 us read must come back as ~2.9 us, not as a power-of-two edge.
  LogHist h;
  for (int i = 0; i < 1000; ++i) h.record(2900);
  const double p50 = h.quantile(0.5);
  expect(std::fabs(p50 - 2900) / 2900 < 0.01, "2.9us within 1%", p50, 2900);
  // Two populations 10% apart stay distinguishable.
  LogHist a, b;
  for (int i = 0; i < 1000; ++i) {
    a.record(2900);
    b.record(3190);
  }
  expect(b.quantile(0.5) / a.quantile(0.5) > 1.08, "10% shift is visible",
         b.quantile(0.5) / a.quantile(0.5), 1.1);
}

void test_quantiles_and_merge() {
  // 99 fast samples and one slow one: p99 is fast, p100 is slow.
  LogHist a, b;
  for (int i = 0; i < 99; ++i) a.record(1000);
  b.record(1000000);
  a.merge(b);
  expect(a.count() == 100, "merged count", double(a.count()), 100);
  expect(std::fabs(a.quantile(0.99) - 1000) / 1000 < 0.01, "p99 fast",
         a.quantile(0.99), 1000);
  expect(std::fabs(a.quantile(1.0) - 1e6) / 1e6 < 0.01, "max slow",
         a.quantile(1.0), 1e6);
  expect(LogHist().quantile(0.5) == 0, "empty histogram reads 0");
}

}  // namespace

int main() {
  test_bucket_edges();
  test_exact_small_values();
  test_microsecond_resolution();
  test_quantiles_and_merge();
  if (failures) {
    std::fprintf(stderr, "loghist_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("loghist_test: ok\n");
  return 0;
}
