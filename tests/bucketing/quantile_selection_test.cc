// QuantileBucketizer reads its cut points by selection (nth_element +
// min_element) rather than sorting. These tests pin it to the sorting
// definition: a full sort followed by util::QuantileSorted must give the
// same breakpoints, compared exactly, on every input shape.

#include <algorithm>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "podium/bucketing/bucketizer.h"
#include "podium/util/math_util.h"
#include "podium/util/rng.h"

namespace podium::bucketing {
namespace {

/// The sorting reference: the interior breakpoints QuantileBucketizer
/// produced before selection replaced the sort. Degenerate inputs (fewer
/// than two values, or a range under 1e-12) split into one bucket; sorted
/// cut points outside (0, 1) or within 1e-12 of the previous one are
/// dropped.
std::vector<double> SortedReference(std::vector<double> values,
                                    int max_buckets) {
  std::vector<double> clean;
  if (values.size() < 2) return clean;
  std::sort(values.begin(), values.end());
  if (values.back() - values.front() < 1e-12) return clean;
  std::vector<double> cuts;
  for (int i = 1; i < max_buckets; ++i) {
    cuts.push_back(util::QuantileSorted(
        values, static_cast<double>(i) / static_cast<double>(max_buckets)));
  }
  // Interpolating between equal neighbours can round a cut one ulp above
  // the next one, so the cuts are sorted before deduplication.
  std::sort(cuts.begin(), cuts.end());
  for (double cut : cuts) {
    if (cut <= 0.0 || cut >= 1.0) continue;
    if (!clean.empty() && cut - clean.back() < 1e-12) continue;
    clean.push_back(cut);
  }
  return clean;
}

/// Splits `values` for every max_buckets in 1..8 and requires the
/// partition's interior bounds to equal the reference's, bit for bit.
void ExpectMatchesReference(const std::vector<double>& values) {
  const QuantileBucketizer bucketizer;
  for (int k = 1; k <= 8; ++k) {
    Result<std::vector<Bucket>> split = bucketizer.Split(values, k);
    ASSERT_TRUE(split.ok()) << split.status();
    std::vector<double> cuts;
    for (std::size_t b = 0; b + 1 < split->size(); ++b) {
      cuts.push_back((*split)[b].hi);
    }
    const std::vector<double> expected = SortedReference(values, k);
    ASSERT_EQ(cuts.size(), expected.size())
        << "n=" << values.size() << " k=" << k;
    for (std::size_t c = 0; c < expected.size(); ++c) {
      // Exact comparison: the selection must reproduce the reference's
      // doubles, not approximate them.
      EXPECT_TRUE(cuts[c] == expected[c])
          << "n=" << values.size() << " k=" << k << " cut " << c << ": "
          << cuts[c] << " vs " << expected[c];
    }
  }
}

/// Input sizes covering the small cases one by one, then a spread up to
/// 5000.
std::vector<std::size_t> Sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 40; ++n) sizes.push_back(n);
  for (std::size_t n : {63, 64, 65, 99, 100, 101, 255, 256, 257, 999, 1000,
                        1001, 2047, 3333, 4096, 4999, 5000}) {
    sizes.push_back(n);
  }
  return sizes;
}

TEST(QuantileSelectionTest, UniformScoresMatchSortedReference) {
  util::Rng rng(101);
  for (std::size_t n : Sizes()) {
    std::vector<double> values(n);
    for (double& v : values) v = rng.NextDouble();
    ExpectMatchesReference(values);
  }
}

TEST(QuantileSelectionTest, HeavyDuplicatesMatchSortedReference) {
  // Scores drawn from a handful of levels, as star ratings and visit
  // frequencies are: most order statistics tie with their neighbours.
  util::Rng rng(202);
  for (std::size_t n : Sizes()) {
    for (std::size_t levels : {3, 5, 11}) {
      std::vector<double> values(n);
      for (double& v : values) {
        v = static_cast<double>(rng.NextBounded(levels)) /
            static_cast<double>(levels - 1);
      }
      ExpectMatchesReference(values);
    }
  }
}

TEST(QuantileSelectionTest, SkewedScoresMatchSortedReference) {
  // Most mass at one end, so several cut points share a value.
  util::Rng rng(303);
  for (std::size_t n : Sizes()) {
    std::vector<double> values(n);
    for (double& v : values) {
      const double x = rng.NextDouble();
      v = x * x * x * x;
    }
    ExpectMatchesReference(values);
  }
}

TEST(QuantileSelectionTest, AllEqualInputsMatchSortedReference) {
  for (std::size_t n : Sizes()) {
    for (double level : {0.0, 0.25, 1.0}) {
      ExpectMatchesReference(std::vector<double>(n, level));
    }
  }
}

TEST(QuantileSelectionTest, TwoValueInputsMatchSortedReference) {
  util::Rng rng(404);
  for (std::size_t n : Sizes()) {
    for (double share : {0.1, 0.5, 0.9}) {
      std::vector<double> values(n);
      for (double& v : values) v = rng.NextBernoulli(share) ? 0.8 : 0.3;
      ExpectMatchesReference(values);
      // The same multiset, already sorted and reversed: selection must
      // not depend on the input order.
      std::sort(values.begin(), values.end());
      ExpectMatchesReference(values);
      std::reverse(values.begin(), values.end());
      ExpectMatchesReference(values);
    }
  }
}

}  // namespace
}  // namespace podium::bucketing
