// Log-linear latency histogram for the benchmark.
//
// Values below 128 ns get one bucket each. Every power of two above that is
// split into 128 equal sub-buckets, so a bucket is at most 1/128 (< 0.8%) of
// its lower edge wide. lf::Histogram uses one bucket per power of two above
// 64, which would report a 2.9 us read as "somewhere in [2048, 4095]" — too
// coarse to see a 10% latency change.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class LogHist {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  // Octaves 2^7 .. 2^35 ns; anything from 2^36 ns (~69 s) up is clamped
  // into the last bucket.
  static constexpr int kMaxExp = 36;
  static constexpr std::size_t kBuckets =
      kSub + static_cast<std::size_t>(kMaxExp - kSubBits) * kSub;

  LogHist() : counts_(kBuckets, 0) {}

  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - std::countl_zero(v);  // e >= kSubBits
    if (e >= kMaxExp) return kBuckets - 1;
    const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;  // 0..kSub-1
    return static_cast<std::size_t>(kSub + (e - kSubBits) * kSub + sub);
  }

  // Smallest value that maps to bucket i.
  static std::uint64_t lower(std::size_t i) noexcept {
    if (i < kSub) return i;
    const std::size_t octave = (i - kSub) / kSub;  // 0 => [2^7, 2^8)
    const std::uint64_t sub = (i - kSub) % kSub;
    const int e = static_cast<int>(octave) + kSubBits;
    return (kSub + sub) << (e - kSubBits);
  }

  // One past the largest value that maps to bucket i.
  static std::uint64_t upper(std::size_t i) noexcept {
    return i + 1 < kBuckets ? lower(i + 1) : lower(i) * 2;
  }

  void record(std::uint64_t v) noexcept {
    ++counts_[index(v)];
    ++n_;
    sum_ += v;
  }

  void merge(const LogHist& o) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    sum_ += o.sum_;
  }

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept {
    return n_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(n_);
  }

  // Value at quantile q in [0, 1]: the midpoint of the bucket holding the
  // sample of rank ceil(q * n) (rank 1 for q = 0). 0 when empty.
  double quantile(double q) const noexcept {
    if (n_ == 0) return 0.0;
    const double want = std::max(1.0, std::ceil(q * static_cast<double>(n_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (static_cast<double>(seen) >= want) {
        return 0.5 * static_cast<double>(lower(i) + upper(i) - 1);
      }
    }
    return 0.5 * static_cast<double>(lower(kBuckets - 1) +
                                     upper(kBuckets - 1) - 1);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
  std::uint64_t sum_ = 0;
};

}  // namespace perfbench
