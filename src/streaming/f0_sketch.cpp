#include "streaming/f0_sketch.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <ranges>
#include <utility>

#include "common/rng.hpp"
#include "hash/gf2_kernels.hpp"
#include "obs/metrics.hpp"

namespace mcf0 {

// ---- BucketingSketchRow -------------------------------------------------

BucketingSketchRow::BucketingSketchRow(int n, uint64_t thresh, Rng& rng)
    : n_(n), thresh_(thresh), h_(AffineHash::SampleToeplitz(n, n, rng)) {
  MCF0_CHECK(n >= 1 && n <= 64);
  MCF0_CHECK(thresh >= 1);
}

BucketingSketchRow::BucketingSketchRow(AffineHash h, uint64_t thresh,
                                       int level,
                                       std::unordered_set<uint64_t> bucket)
    : n_(h.n()),
      thresh_(thresh),
      h_(std::move(h)),
      level_(level),
      bucket_(std::move(bucket)) {
  MCF0_CHECK(n_ >= 1 && n_ <= 64 && h_.m() == n_);
  MCF0_CHECK(thresh >= 1);
  MCF0_CHECK(level >= 0 && level <= n_);
}

bool BucketingSketchRow::InCell(uint64_t x, int level) const {
  if (level == 0) return true;
  const uint64_t hash = h_.Eval64(x);
  // First `level` bits of the n-bit value are its high bits.
  return (hash >> (n_ - level)) == 0;
}

void BucketingSketchRow::Add(uint64_t x) {
  if (!InCell(x, level_)) return;
  bucket_.insert(x);
  while (bucket_.size() > thresh_ && level_ < n_) {
    ++level_;
    for (auto it = bucket_.begin(); it != bucket_.end();) {
      if (!InCell(*it, level_)) {
        it = bucket_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void BucketingSketchRow::Add(std::span<const uint64_t> xs) {
  // The insert/escalate sequence is order-sensitive; replay it exactly.
  for (const uint64_t x : xs) Add(x);
}

double BucketingSketchRow::Estimate() const {
  return static_cast<double>(bucket_.size()) * std::pow(2.0, level_);
}

size_t BucketingSketchRow::SpaceBits() const {
  return bucket_.size() * static_cast<size_t>(n_) + h_.RepresentationBits() +
         /*level counter*/ 8;
}

// ---- MinimumSketchRow ---------------------------------------------------

BitVec MinimumSketchRow::Values::operator[](size_t i) const {
  const std::span<const uint64_t> w = words(i);
  return BitVec::FromWords(bits_, std::vector<uint64_t>(w.begin(), w.end()));
}

MinimumSketchRow::MinimumSketchRow(int n, uint64_t thresh, Rng& rng)
    : MinimumSketchRow(AffineHash::SampleToeplitz(n, 3 * n, rng), thresh) {
  MCF0_CHECK(n >= 1 && n <= 64);
}

MinimumSketchRow::MinimumSketchRow(AffineHash h, uint64_t thresh)
    : thresh_(thresh),
      h_(std::move(h)),
      stride_(static_cast<size_t>(h_.out_words())) {
  MCF0_CHECK(thresh >= 1 && h_.m() >= 1);
}

std::span<const uint64_t> MinimumSketchRow::Key(size_t i) const {
  return std::span<const uint64_t>(keys_).subspan(i * stride_, stride_);
}

size_t MinimumSketchRow::LowerBound(std::span<const uint64_t> key, size_t lo,
                                    size_t end) const {
  const auto below = [&](size_t i) {
    return std::ranges::lexicographical_compare(Key(i), key);
  };
  // Gallop: every key before lo is below `key`; double the step past keys
  // that are too, then bisect the last window.
  size_t step = 1;
  while (lo + step < end && below(lo + step - 1)) {
    lo += step;
    step *= 2;
  }
  return *std::ranges::partition_point(
      std::views::iota(lo, std::min(end, lo + step)), below);
}

void MinimumSketchRow::InsertRun(std::span<const uint64_t> run) {
  const size_t kept = size();
  const size_t count = run.size() / stride_;
  const auto run_key = [&](size_t j) { return run.subspan(j * stride_, stride_); };
  // Each run key's lower bound among the kept keys, or kHeld when it is
  // kept already. The run ascends, so each search gallops on from the last.
  constexpr size_t kHeld = std::numeric_limits<size_t>::max();
  std::vector<size_t> at(count);
  size_t fresh = 0;
  for (size_t j = 0, lo = 0; j < count; ++j) {
    lo = LowerBound(run_key(j), lo, kept);
    const bool held = lo < kept && std::ranges::equal(Key(lo), run_key(j));
    at[j] = held ? kHeld : lo;
    if (!held) ++fresh;
  }
  if (fresh == 0) return;
  const size_t final_size = std::min<uint64_t>(thresh_, kept + fresh);
  keys_.resize(final_size * stride_);
  // Back to front: kept keys [0, end) have not moved yet, and slot `write`
  // is one past where the next key (in descending order) lands. Keys that
  // land at or past final_size are the ones truncated away.
  size_t end = kept;
  size_t write = kept + fresh;
  for (size_t j = count; j-- > 0;) {
    if (at[j] == kHeld) continue;
    const size_t p = at[j];
    // Kept keys [p, end) shift up to [dest, write).
    const size_t dest = write - (end - p);
    if (dest < final_size) {
      const size_t last = std::min(end, p + (final_size - dest));
      std::copy_backward(keys_.begin() + p * stride_,
                         keys_.begin() + last * stride_,
                         keys_.begin() + (dest + last - p) * stride_);
    }
    end = p;
    write = dest - 1;
    if (write < final_size) {
      std::ranges::copy(run_key(j), keys_.begin() + write * stride_);
    }
  }
}

void MinimumSketchRow::InsertUnsorted(std::vector<uint64_t>& pending) {
  const size_t count = pending.size() / stride_;
  const auto key = [&](size_t i) {
    return std::span<const uint64_t>(pending).subspan(i * stride_, stride_);
  };
  const auto less = [&](size_t a, size_t b) {
    return std::ranges::lexicographical_compare(key(a), key(b));
  };
  size_t ascending = 1;  // length of the strictly ascending prefix
  while (ascending < count && less(ascending - 1, ascending)) ++ascending;
  if (ascending >= count) {  // already a run (enumerators emit in order)
    InsertRun(pending);
    pending.clear();
    return;
  }
  std::vector<size_t> order(count);
  std::iota(order.begin(), order.end(), size_t{0});
  std::ranges::sort(order, less);
  std::vector<uint64_t> run;
  run.reserve(pending.size());
  for (size_t k = 0; k < count; ++k) {
    if (k > 0 && std::ranges::equal(key(order[k]), key(order[k - 1]))) {
      continue;
    }
    std::ranges::copy(key(order[k]), std::back_inserter(run));
  }
  InsertRun(run);
  pending.clear();
}

void MinimumSketchRow::Add(uint64_t x) { Add(std::span<const uint64_t>(&x, 1)); }

void MinimumSketchRow::Add(std::span<const uint64_t> xs) {
  MCF0_CHECK(h_.n() <= 64);
  std::vector<uint64_t> pending;
  for (const uint64_t x : xs) {
    const uint64_t xw = h_.PackInput(x);
    const uint64_t top = h_.EvalWord(xw, 0);
    if (saturated() && top > MaxTopWord()) continue;  // not among the smallest
    pending.push_back(top);
    for (size_t w = 1; w < stride_; ++w) {
      pending.push_back(h_.EvalWord(xw, static_cast<int>(w)));
    }
    if (pending.size() / stride_ >= thresh_) InsertUnsorted(pending);
  }
  if (!pending.empty()) InsertUnsorted(pending);
}

void MinimumSketchRow::AddHashed(const BitVec& value) {
  AddHashed(std::span<const BitVec>(&value, 1));
}

void MinimumSketchRow::AddHashed(std::span<const BitVec> values) {
  std::vector<uint64_t> pending;
  for (const BitVec& value : values) {
    MCF0_CHECK(value.size() == h_.m());
    const std::vector<uint64_t>& words = value.words();
    if (saturated() && words[0] > MaxTopWord()) continue;
    pending.insert(pending.end(), words.begin(), words.end());
    if (pending.size() / stride_ >= thresh_) InsertUnsorted(pending);
  }
  if (!pending.empty()) InsertUnsorted(pending);
}

void MinimumSketchRow::MergeValues(const Values& other) {
  MCF0_CHECK(other.bits_ == h_.m());
  // A row merged with itself holds no fresh key, so InsertRun returns
  // before it resizes the store `other` views.
  InsertRun(other.keys_);
}

double MinimumSketchRow::Estimate() const {
  if (!saturated()) {
    // Sub-threshold regime: every distinct hash value is retained, so the
    // sketch size itself is the (collision-free w.h.p. at 3n bits) count.
    return static_cast<double>(size());
  }
  const double max_value = values()[size() - 1].ToDouble();
  if (max_value == 0.0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(thresh_) * std::pow(2.0, h_.m()) / max_value;
}

size_t MinimumSketchRow::SpaceBits() const {
  return size() * static_cast<size_t>(h_.m()) + h_.RepresentationBits();
}

// ---- EstimationSketchRow ------------------------------------------------

EstimationSketchRow::EstimationSketchRow(const Gf2Field* field, int num_cols,
                                         int s, Rng& rng)
    : field_(field) {
  MCF0_CHECK(num_cols >= 1 && s >= 1);
  hashes_.reserve(num_cols);
  for (int j = 0; j < num_cols; ++j) {
    hashes_.push_back(PolynomialHash::Sample(field_, s, rng));
  }
  cells_.assign(num_cols, 0);
}

EstimationSketchRow::EstimationSketchRow(int num_cols) : field_(nullptr) {
  MCF0_CHECK(num_cols >= 1);
  cells_.assign(num_cols, 0);
}

EstimationSketchRow::EstimationSketchRow(const Gf2Field* field,
                                         std::vector<PolynomialHash> hashes,
                                         std::vector<int> cells)
    : field_(field), hashes_(std::move(hashes)), cells_(std::move(cells)) {
  MCF0_CHECK(!cells_.empty());
  MCF0_CHECK(hashes_.empty() || hashes_.size() == cells_.size());
  MCF0_CHECK(hashes_.empty() || field_ != nullptr);
}

void EstimationSketchRow::Add(uint64_t x) {
  Add(std::span<const uint64_t>(&x, 1));
}

void EstimationSketchRow::Add(std::span<const uint64_t> xs) {
  MCF0_CHECK(field_ != nullptr);  // cells-only rows are Merge-fed
  if (hashes_.empty()) return;
  // Pack the coefficients k-major for the fused kernel. Rows decoded from
  // embedded frames may mix values of s; shorter hashes zero-pad to the
  // largest, and a zero coefficient adds nothing. The tile is per-thread
  // scratch, so the row keeps no second copy of its coefficients.
  const size_t polys = hashes_.size();
  size_t s = 0;
  for (const PolynomialHash& h : hashes_) {
    s = std::max(s, static_cast<size_t>(h.s()));
  }
  thread_local std::vector<uint64_t> packed;
  packed.assign(s * polys, 0);
  for (size_t j = 0; j < polys; ++j) {
    const std::vector<uint64_t>& coeffs = hashes_[j].coeffs();
    for (size_t k = 0; k < coeffs.size(); ++k) {
      packed[k * polys + j] = coeffs[k];
    }
  }
  gf2k::TrailZeroMaxBatch(packed, xs, cells_, field_->degree(),
                          field_->modulus_low());
}

void EstimationSketchRow::Merge(int j, int t) {
  MCF0_CHECK(j >= 0 && j < static_cast<int>(cells_.size()));
  if (t > cells_[j]) cells_[j] = t;
}

double EstimationSketchRow::EstimateWithR(int r) const {
  MCF0_CHECK(r >= 1);
  int hits = 0;
  for (const int c : cells_) {
    if (c >= r) ++hits;
  }
  const double m = static_cast<double>(cells_.size());
  const double ratio = static_cast<double>(hits) / m;
  if (ratio >= 1.0) return std::numeric_limits<double>::infinity();
  if (ratio <= 0.0) return 0.0;
  return std::log1p(-ratio) / std::log1p(-std::pow(2.0, -r));
}

size_t EstimationSketchRow::SpaceBits() const {
  // Each cell stores a value in [0, w]: ceil(log2(w+1)) bits; each hash
  // needs s field elements of w bits.
  const size_t w =
      field_ != nullptr ? static_cast<size_t>(field_->degree()) : 64;
  size_t cell_bits = 1;
  while ((1ull << cell_bits) < w + 1) ++cell_bits;
  size_t hash_bits = 0;
  for (const auto& h : hashes_) {
    hash_bits += static_cast<size_t>(h.s()) * w;
  }
  return cells_.size() * cell_bits + hash_bits;
}

// ---- FlajoletMartinRow --------------------------------------------------

FlajoletMartinRow::FlajoletMartinRow(int n, Rng& rng)
    : n_(n), h_(AffineHash::SampleXor(n, n, rng)) {
  MCF0_CHECK(n >= 1 && n <= 64);
}

FlajoletMartinRow::FlajoletMartinRow(AffineHash h, int max_tz)
    : n_(h.n()), h_(std::move(h)), max_tz_(max_tz) {
  MCF0_CHECK(n_ >= 1 && n_ <= 64 && h_.m() == n_);
  MCF0_CHECK(max_tz >= 0 && max_tz <= n_);
}

void FlajoletMartinRow::Add(uint64_t x) {
  const int t = TrailZero64(h_.Eval64(x), n_);
  if (t > max_tz_) max_tz_ = t;
}

void FlajoletMartinRow::Add(std::span<const uint64_t> xs) {
  int max_tz = max_tz_;
  for (const uint64_t x : xs) {
    const int t = TrailZero64(h_.Eval64(x), n_);
    if (t > max_tz) max_tz = t;
  }
  max_tz_ = max_tz;
}

// ---- driver ---------------------------------------------------------------

uint64_t F0Thresh(const F0Params& params) {
  if (params.thresh_override > 0) return params.thresh_override;
  const double thresh = std::ceil(96.0 / (params.eps * params.eps));
  // Casting past 2^64 is UB; an eps that small is a caller bug (the wire
  // decoder bounds eps before ever reaching here).
  MCF0_CHECK(thresh <= 9.0e18);
  return static_cast<uint64_t>(thresh);
}

int F0Rows(const F0Params& params) {
  if (params.rows_override > 0) return params.rows_override;
  return static_cast<int>(std::ceil(35.0 * std::log2(1.0 / params.delta)));
}

int F0IndependenceS(const F0Params& params) {
  if (params.s_override > 0) return params.s_override;
  return std::max(
      2, static_cast<int>(std::ceil(10.0 * std::log2(1.0 / params.eps))));
}

namespace {
// The draw count lives in the process-wide metrics registry (the
// bespoke file-local atomic it replaces predates src/obs). Resolved
// once; Counter increments are relaxed, so the monotone/atomic
// contract of TotalSamplerRowDraws() is unchanged.
obs::Counter* RowDrawCounter() {
  static obs::Counter* counter =
      obs::Registry::Global().GetCounter("mcf0_sampler_row_draws_total");
  return counter;
}
}  // namespace

uint64_t TotalSamplerRowDraws() { return RowDrawCounter()->Value(); }

namespace internal {
void BumpSamplerRowDraws() { RowDrawCounter()->Increment(); }
}  // namespace internal

F0RowSampler::F0RowSampler(const F0Params& params)
    : params_(params), rng_(params.seed) {
  // Validate before deriving: F0Thresh casts 96/eps^2 to an integer, which
  // is undefined for eps <= 0, so the checks must run first.
  MCF0_CHECK(params.n >= 1 && params.n <= 64);
  MCF0_CHECK(params.eps > 0 && params.delta > 0 && params.delta < 1);
  thresh_ = F0Thresh(params);
  s_ = F0IndependenceS(params);
}

BucketingSketchRow F0RowSampler::NextBucketingRow() {
  MCF0_CHECK(params_.algorithm == F0Algorithm::kBucketing);
  internal::BumpSamplerRowDraws();
  return BucketingSketchRow(params_.n, thresh_, rng_);
}

MinimumSketchRow F0RowSampler::NextMinimumRow() {
  MCF0_CHECK(params_.algorithm == F0Algorithm::kMinimum);
  internal::BumpSamplerRowDraws();
  return MinimumSketchRow(params_.n, thresh_, rng_);
}

std::pair<EstimationSketchRow, FlajoletMartinRow>
F0RowSampler::NextEstimationPair(const Gf2Field* field) {
  MCF0_CHECK(params_.algorithm == F0Algorithm::kEstimation);
  MCF0_CHECK(field != nullptr && field->degree() == params_.n);
  internal::BumpSamplerRowDraws();
  // Draw order matches the historical constructor: the Estimation row's
  // polynomial hashes, then the paired FM row's affine hash. Changing this
  // order would silently re-key every seed-elided v2 sketch file.
  EstimationSketchRow est(field, static_cast<int>(thresh_), s_, rng_);
  FlajoletMartinRow fm(params_.n, rng_);
  return {std::move(est), std::move(fm)};
}

F0Estimator::F0Estimator(const F0Params& params)
    : params_(params), hashes_canonical_(true) {
  // Canonical by construction: every hash below comes from the sampler's
  // deterministic replay of params.seed — the attestation the v2 encoder's
  // O(state) elided fast path rides on.
  F0RowSampler sampler(params);
  const int rows = F0Rows(params);
  switch (params.algorithm) {
    case F0Algorithm::kBucketing:
      for (int i = 0; i < rows; ++i) {
        bucketing_rows_.push_back(sampler.NextBucketingRow());
      }
      break;
    case F0Algorithm::kMinimum:
      for (int i = 0; i < rows; ++i) {
        minimum_rows_.push_back(sampler.NextMinimumRow());
      }
      break;
    case F0Algorithm::kEstimation: {
      field_ = std::make_unique<Gf2Field>(params.n);
      for (int i = 0; i < rows; ++i) {
        auto [est, fm] = sampler.NextEstimationPair(field_.get());
        estimation_rows_.push_back(std::move(est));
        fm_rows_.push_back(std::move(fm));
      }
      break;
    }
  }
}

F0Estimator::~F0Estimator() = default;

F0Estimator::Parts F0Estimator::ReleaseParts() && {
  Parts parts;
  parts.params = params_;
  parts.field = std::move(field_);
  parts.bucketing = std::move(bucketing_rows_);
  parts.minimum = std::move(minimum_rows_);
  parts.estimation = std::move(estimation_rows_);
  parts.fm = std::move(fm_rows_);
  parts.hashes_canonical = hashes_canonical_;
  return parts;
}

F0Estimator F0Estimator::FromParts(Parts parts) {
  const size_t rows = static_cast<size_t>(F0Rows(parts.params));
  switch (parts.params.algorithm) {
    case F0Algorithm::kBucketing:
      MCF0_CHECK(parts.bucketing.size() == rows && parts.minimum.empty() &&
                 parts.estimation.empty() && parts.fm.empty());
      break;
    case F0Algorithm::kMinimum:
      MCF0_CHECK(parts.minimum.size() == rows && parts.bucketing.empty() &&
                 parts.estimation.empty() && parts.fm.empty());
      break;
    case F0Algorithm::kEstimation:
      MCF0_CHECK(parts.estimation.size() == rows && parts.fm.size() == rows &&
                 parts.bucketing.empty() && parts.minimum.empty());
      MCF0_CHECK(parts.field != nullptr);
      break;
  }
  F0Estimator est;
  est.params_ = parts.params;
  est.field_ = std::move(parts.field);
  est.bucketing_rows_ = std::move(parts.bucketing);
  est.minimum_rows_ = std::move(parts.minimum);
  est.estimation_rows_ = std::move(parts.estimation);
  est.fm_rows_ = std::move(parts.fm);
  est.hashes_canonical_ = parts.hashes_canonical;
  return est;
}

void F0Estimator::Add(uint64_t x) {
  for (auto& row : bucketing_rows_) row.Add(x);
  for (auto& row : minimum_rows_) row.Add(x);
  for (auto& row : estimation_rows_) row.Add(x);
  for (auto& row : fm_rows_) row.Add(x);
}

void F0Estimator::Add(std::span<const uint64_t> xs) {
  for (auto& row : bucketing_rows_) row.Add(xs);
  for (auto& row : minimum_rows_) row.Add(xs);
  for (auto& row : estimation_rows_) row.Add(xs);
  for (auto& row : fm_rows_) row.Add(xs);
}

double F0Estimator::Estimate() const {
  std::vector<double> estimates;
  switch (params_.algorithm) {
    case F0Algorithm::kBucketing:
      for (const auto& row : bucketing_rows_) {
        estimates.push_back(row.Estimate());
      }
      return Median(std::move(estimates));
    case F0Algorithm::kMinimum:
      for (const auto& row : minimum_rows_) estimates.push_back(row.Estimate());
      return Median(std::move(estimates));
    case F0Algorithm::kEstimation: {
      // Pick r from the parallel FM rows: 2^r ~ 10 * F̂ sits mid-window in
      // [2 F0, 50 F0] whenever F̂ is within the FM 5-factor band (§3.4).
      std::vector<double> fm;
      for (const auto& row : fm_rows_) fm.push_back(row.Estimate());
      const double rough = Median(std::move(fm));
      if (rough < 1.0) return 0.0;  // empty stream
      int r = static_cast<int>(std::lround(std::log2(10.0 * rough)));
      r = std::clamp(r, 1, params_.n);
      for (const auto& row : estimation_rows_) {
        estimates.push_back(row.EstimateWithR(r));
      }
      return Median(std::move(estimates));
    }
  }
  MCF0_CHECK(false);
  return 0.0;
}

size_t F0Estimator::SpaceBits() const {
  size_t bits = 0;
  for (const auto& row : bucketing_rows_) bits += row.SpaceBits();
  for (const auto& row : minimum_rows_) bits += row.SpaceBits();
  for (const auto& row : estimation_rows_) bits += row.SpaceBits();
  // FM rows: hash + a 6-bit counter.
  bits += fm_rows_.size() * (static_cast<size_t>(params_.n) * params_.n + 6);
  return bits;
}

}  // namespace mcf0
