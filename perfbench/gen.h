// Seeded input generator for the benchmark.
//
// Self-contained on purpose: the benchmark must not draw its traffic from
// lf::workload (or the library's RNG), so a change to the library cannot
// change the inputs it is measured on. The same (workload, seed) always
// yields the same prefill keys and the same per-thread op streams, and
// digest() lets two runs show that they used identical inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

// splitmix64 step: seeds Rng and mixes seed components.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// xoshiro256** (Blackman & Vigna).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept {
    for (auto& w : s_) w = seed = mix64(seed);
  }

  std::uint64_t next() noexcept {
    const std::uint64_t out = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return out;
  }

  // Uniform in [0, bound) (Lemire multiply-shift).
  std::uint64_t below(std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

// A permutation of [0, n) drawn by Fisher-Yates (written out rather than
// std::shuffle, whose algorithm is implementation-defined).
inline std::vector<std::uint64_t> permutation(std::uint64_t n, Rng& rng) {
  std::vector<std::uint64_t> p(n);
  for (std::uint64_t i = 0; i < n; ++i) p[i] = i;
  for (std::uint64_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

enum class Dist { kUniform, kScrambledZipf, kRepeatedRange };

// Zipf(theta) over ranks 0..n-1 by inversion of an exact CDF table. The
// rank -> key map is a seeded permutation ("scrambled"), so hot keys sit
// at unrelated positions: popularity skew without positional skew.
class ScrambledZipf {
 public:
  ScrambledZipf(std::uint64_t n, double theta, std::uint64_t seed)
      : cdf_(n) {
    double sum = 0;
    for (std::uint64_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
    Rng rng(mix64(seed ^ 0x5a49504653ULL));
    key_of_rank_ = permutation(n, rng);
  }

  std::uint64_t draw(Rng& rng) const noexcept {
    const double u = rng.uniform();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return key_of_rank_[static_cast<std::size_t>(it - cdf_.begin())];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint64_t> key_of_rank_;
};

// Key source for one thread's stream.
class KeyDraw {
 public:
  KeyDraw(Dist dist, std::uint64_t key_space, const ScrambledZipf* zipf,
          std::uint64_t range_width, std::uint64_t range_dwell)
      : dist_(dist),
        key_space_(key_space),
        zipf_(zipf),
        width_(std::min(range_width, key_space)),
        dwell_(std::max<std::uint64_t>(range_dwell, 1)) {}

  std::uint64_t next(Rng& rng) noexcept {
    switch (dist_) {
      case Dist::kScrambledZipf:
        return zipf_->draw(rng);
      case Dist::kRepeatedRange:
        if (left_ == 0) {
          base_ = rng.below(key_space_ - width_ + 1);
          left_ = dwell_;
        }
        --left_;
        return base_ + rng.below(width_);
      case Dist::kUniform:
        break;
    }
    return rng.below(key_space_);
  }

 private:
  Dist dist_;
  std::uint64_t key_space_;
  const ScrambledZipf* zipf_;
  std::uint64_t width_;
  std::uint64_t dwell_;
  std::uint64_t base_ = 0;
  std::uint64_t left_ = 0;
};

// One stream entry packs the call kind into the top two bits of the key.
enum class OpKind : std::uint64_t { kContains = 0, kInsert, kErase, kScan };
inline constexpr int kKindShift = 62;
inline constexpr std::uint64_t kKeyMask = (std::uint64_t{1} << kKindShift) - 1;

inline std::uint64_t pack(OpKind k, std::uint64_t key) noexcept {
  return (static_cast<std::uint64_t>(k) << kKindShift) | key;
}
inline OpKind kind_of(std::uint64_t w) noexcept {
  return static_cast<OpKind>(w >> kKindShift);
}
inline std::uint64_t key_of(std::uint64_t w) noexcept { return w & kKeyMask; }

struct Mix {
  int insert_pct;
  int erase_pct;
  int scan_pct;  // the rest are contains
};

// Thread `tid`'s stream of `len` calls. Scan entries carry the range start
// lo, drawn uniformly so that [lo, lo + scan_width) lies in the key space.
inline std::vector<std::uint64_t> make_stream(
    std::uint64_t seed, unsigned tid, std::uint64_t len, Dist dist,
    std::uint64_t key_space, const ScrambledZipf* zipf,
    std::uint64_t range_width, std::uint64_t range_dwell, Mix mix,
    std::uint64_t scan_width) {
  Rng rng(mix64(seed) ^ mix64(0x0b5000 + tid));
  KeyDraw keys(dist, key_space, zipf, range_width, range_dwell);
  std::vector<std::uint64_t> out(len);
  for (auto& w : out) {
    const int r = static_cast<int>(rng.below(100));
    if (r < mix.insert_pct) {
      w = pack(OpKind::kInsert, keys.next(rng));
    } else if (r < mix.insert_pct + mix.erase_pct) {
      w = pack(OpKind::kErase, keys.next(rng));
    } else if (r < mix.insert_pct + mix.erase_pct + mix.scan_pct) {
      w = pack(OpKind::kScan, rng.below(key_space - scan_width + 1));
    } else {
      w = pack(OpKind::kContains, keys.next(rng));
    }
  }
  return out;
}

// `live` distinct keys of [0, key_space), in the (random) order to insert.
inline std::vector<std::uint64_t> make_prefill(std::uint64_t seed,
                                               std::uint64_t key_space,
                                               std::uint64_t live) {
  Rng rng(mix64(seed) ^ mix64(0x9f111));
  std::vector<std::uint64_t> p = permutation(key_space, rng);
  p.resize(live);
  return p;
}

// FNV-1a over the 64-bit words.
inline std::uint64_t digest(const std::vector<std::uint64_t>& v) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t w : v) {
    for (int b = 0; b < 64; b += 8) {
      h ^= (w >> b) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace perfbench
