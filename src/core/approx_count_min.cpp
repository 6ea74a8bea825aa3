#include "core/approx_count_min.hpp"

#include "common/median.hpp"
#include "common/rng.hpp"
#include "oracle/find_min.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {
namespace {

/// Shared row: build the Minimum sketch from FindMin output and reuse the
/// streaming ComputeEst — the transformation recipe, literally.
double MinRowEstimate(AffineHash h, uint64_t thresh,
                      const std::vector<BitVec>& mins) {
  MinimumSketchRow row(std::move(h), thresh);
  row.AddHashed(mins);
  return row.Estimate();
}

}  // namespace

CountResult ApproxCountMinCnf(const Cnf& cnf, const CountingParams& params) {
  CountResult result;
  result.thresh = CountingThresh(params);
  result.rows = CountingRows(params);
  Rng rng(params.seed);
  CnfOracle oracle(cnf);
  oracle.SetUseTseitin(params.use_tseitin);
  const int n = cnf.num_vars();
  for (int i = 0; i < result.rows; ++i) {
    AffineHash h = SampleCountingHash(n, 3 * n, params, rng);
    const std::vector<BitVec> mins = FindMinCnf(oracle, h, result.thresh);
    result.row_estimates.push_back(
        MinRowEstimate(std::move(h), result.thresh, mins));
  }
  result.estimate = Median(result.row_estimates);
  result.oracle_calls = oracle.num_calls();
  return result;
}

CountResult ApproxCountMinDnf(const Dnf& dnf, const CountingParams& params) {
  CountResult result;
  result.thresh = CountingThresh(params);
  result.rows = CountingRows(params);
  Rng rng(params.seed);
  const int n = dnf.num_vars();
  for (int i = 0; i < result.rows; ++i) {
    AffineHash h = SampleCountingHash(n, 3 * n, params, rng);
    const std::vector<BitVec> mins = FindMinDnf(dnf, h, result.thresh);
    result.row_estimates.push_back(
        MinRowEstimate(std::move(h), result.thresh, mins));
  }
  result.estimate = Median(result.row_estimates);
  result.oracle_calls = 0;
  return result;
}

}  // namespace mcf0
