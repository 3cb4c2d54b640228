#include "sampler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace selbench {

std::uint64_t Rng::Below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::Below(0)");
  // Reject draws from the incomplete top block so every residue is equally
  // likely.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  std::uint64_t draw = Next();
  while (draw >= limit) draw = Next();
  return draw % bound;
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  if (n == 0) throw std::invalid_argument("ZipfSampler over zero ranks");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

std::size_t ZipfSampler::Draw(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

double ZipfSampler::Probability(std::size_t rank) const {
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

std::vector<std::size_t> StratifiedValues(Rng& rng, std::size_t lo,
                                          std::size_t hi, std::size_t count) {
  if (hi < lo) throw std::invalid_argument("StratifiedValues: hi < lo");
  std::vector<std::size_t> block(hi - lo + 1);
  std::vector<std::size_t> out;
  out.reserve(count);
  while (out.size() < count) {
    for (std::size_t i = 0; i < block.size(); ++i) block[i] = lo + i;
    rng.Shuffle(block);
    for (std::size_t v : block) {
      if (out.size() == count) break;
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace selbench
