// Seeded input generation for the selection benchmark: a portable RNG, a
// Zipf popularity sampler, and stratified shuffles.
//
// Everything here is a pure function of the seed. The engine is
// std::mt19937_64, whose output sequence the standard fixes, and the
// floating-point and bounded draws are computed here rather than through
// std::*_distribution (whose algorithms are implementation-defined), so a
// seed names the same inputs on every platform.

#ifndef SELBENCH_SAMPLER_H_
#define SELBENCH_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace selbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  std::uint64_t Next() { return engine_(); }

  /// Uniform in [0, 1) with 53 random bits.
  double Uniform() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [0, bound), unbiased (rejection on the top remainder).
  std::uint64_t Below(std::uint64_t bound);

  /// Uniform in [lo, hi] (inclusive).
  std::uint64_t Between(std::uint64_t lo, std::uint64_t hi) {
    return lo + Below(hi - lo + 1);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[Below(i)]);
    }
  }

 private:
  std::mt19937_64 engine_;
};

/// Zipf(s) over ranks 0..n-1: P(rank r) proportional to 1 / (r + 1)^s.
/// Draws invert the cumulative distribution by binary search.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  std::size_t Draw(Rng& rng) const;
  double Probability(std::size_t rank) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r); cdf_.back() == 1
};

/// `count` values from [lo, hi] in stratified order: the range is walked in
/// blocks, each block holding every value once in a seeded shuffle, so any
/// run of (hi - lo + 1) consecutive draws covers the range almost evenly. The
/// aggregate cost of a run then depends on the seed far less than with
/// independent draws, while the order still does.
std::vector<std::size_t> StratifiedValues(Rng& rng, std::size_t lo,
                                          std::size_t hi, std::size_t count);

}  // namespace selbench

#endif  // SELBENCH_SAMPLER_H_
