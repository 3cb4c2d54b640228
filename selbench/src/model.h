// The miss-path cost model: a least-squares fit of
//
//   select ~= c_retire * retired_links + c_scan * rounds * |pool| + c_ser * B
//
// over traced requests. On one population the scan term (rounds * |pool|)
// and the serialization term (B) are proportional, so a single joint fit is
// singular; the model is fitted in two stages instead. c_ser comes from the
// serialization spans alone (ser ~= c_ser * B), and c_retire and c_scan from
// the selection spans (greedy ~= c_retire * retired + c_scan * scan).

#ifndef SELBENCH_MODEL_H_
#define SELBENCH_MODEL_H_

#include <cstddef>
#include <vector>

namespace selbench {

struct CostSample {
  double retired_links = 0.0;
  double scan_work = 0.0;   // sum over greedy runs of rounds * |pool|
  double budget = 0.0;
  double select_seconds = 0.0;     // measured selection time
  double serialize_seconds = 0.0;  // measured serialization time
};

struct CostModel {
  bool fitted = false;
  double retire_seconds = 0.0;  // per retired link
  double scan_seconds = 0.0;    // per scanned candidate-round
  double ser_seconds = 0.0;     // per selected user serialized
  /// Root mean square of (modelled - measured) / measured over the samples.
  double residual = 0.0;
  /// Samples whose measured and modelled totals differ by more than 2x.
  std::size_t outliers = 0;

  double Predict(const CostSample& sample) const {
    return retire_seconds * sample.retired_links +
           scan_seconds * sample.scan_work + ser_seconds * sample.budget;
  }
};

/// Fits the model; `fitted` is false with fewer than three samples or when
/// the selection features are degenerate.
CostModel FitCostModel(const std::vector<CostSample>& samples);

}  // namespace selbench

#endif  // SELBENCH_MODEL_H_
