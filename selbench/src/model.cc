#include "model.h"

#include <cmath>

namespace selbench {

CostModel FitCostModel(const std::vector<CostSample>& samples) {
  CostModel model;
  if (samples.size() < 3) return model;

  // Stage 1: ser ~= c_ser * B (one-parameter least squares).
  double sb = 0.0;
  double bb = 0.0;
  for (const CostSample& s : samples) {
    sb += s.serialize_seconds * s.budget;
    bb += s.budget * s.budget;
  }
  if (bb <= 0.0) return model;
  model.ser_seconds = sb / bb;

  // Stage 2: greedy ~= c_retire * retired + c_scan * scan, via the 2x2
  // normal equations. Features are scaled to unit mean first so the
  // determinant test is not swamped by their very different magnitudes.
  double mean_r = 0.0;
  double mean_s = 0.0;
  for (const CostSample& s : samples) {
    mean_r += s.retired_links;
    mean_s += s.scan_work;
  }
  mean_r /= static_cast<double>(samples.size());
  mean_s /= static_cast<double>(samples.size());
  if (mean_s <= 0.0) return model;
  double rr = 0.0, rs = 0.0, ss = 0.0, ry = 0.0, sy = 0.0;
  for (const CostSample& s : samples) {
    const double r = mean_r > 0.0 ? s.retired_links / mean_r : 0.0;
    const double x = s.scan_work / mean_s;
    rr += r * r;
    rs += r * x;
    ss += x * x;
    ry += r * s.select_seconds;
    sy += x * s.select_seconds;
  }
  const double det = rr * ss - rs * rs;
  if (mean_r > 0.0 && det > 1e-9 * rr * ss) {
    model.retire_seconds = (ry * ss - sy * rs) / det / mean_r;
    model.scan_seconds = (rr * sy - rs * ry) / det / mean_s;
  } else {
    // Retirement indistinguishable from scanning: scan-only fit.
    model.scan_seconds = sy / ss / mean_s;
  }
  model.fitted = true;

  double squares = 0.0;
  for (const CostSample& s : samples) {
    const double measured = s.select_seconds + s.serialize_seconds;
    const double modelled = model.Predict(s);
    if (measured > 0.0) {
      const double relative = (modelled - measured) / measured;
      squares += relative * relative;
    }
    if (modelled <= 0.0 || measured > 2.0 * modelled ||
        modelled > 2.0 * measured) {
      ++model.outliers;
    }
  }
  model.residual = std::sqrt(squares / static_cast<double>(samples.size()));
  return model;
}

}  // namespace selbench
