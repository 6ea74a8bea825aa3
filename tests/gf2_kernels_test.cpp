// Parity and byte-identity tests for the gf2k kernel layer
// (src/hash/gf2_kernels): the hardware tiers must agree with the
// portable reference bit-for-bit on every field width, the packed
// Toeplitz / affine fast paths must agree with their per-bit
// references, and a sketch built through the span-Add batch surface
// must encode to exactly the bytes of an item-by-item build.
//
// Hardware-tier cases skip with a note when this CPU lacks the tier —
// the CI force-portable leg runs the same binary with
// MCF0_FORCE_PORTABLE=1, so both dispatch outcomes are exercised.
#include "hash/gf2_kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/sketch_codec.hpp"
#include "gf2/bitvec.hpp"
#include "gf2/toeplitz.hpp"
#include "hash/gf2_poly.hpp"
#include "hash/hash_family.hpp"
#include "obs/metrics.hpp"
#include "streaming/f0_sketch.hpp"

namespace mcf0 {
namespace gf2k {

// Tier names instead of raw bytes in parameterized test output.
void PrintTo(KernelTier tier, std::ostream* os) { *os << KernelTierName(tier); }

}  // namespace gf2k

namespace {

using gf2k::KernelTier;

/// Forces a kernel tier for one test scope, restoring detection on exit.
class ScopedTier {
 public:
  explicit ScopedTier(KernelTier tier) { gf2k::ForceKernelTier(tier); }
  ~ScopedTier() { gf2k::ForceKernelTier(std::nullopt); }
};

/// The hardware tier this CPU offers, if any (portable always works).
std::optional<KernelTier> HardwareTier() {
  if (gf2k::KernelTierAvailable(KernelTier::kClmul)) return KernelTier::kClmul;
  if (gf2k::KernelTierAvailable(KernelTier::kPmull)) return KernelTier::kPmull;
  return std::nullopt;
}

uint64_t WidthMask(int w) { return w == 64 ? ~0ull : ((1ull << w) - 1); }

// ---- dispatch --------------------------------------------------------------

TEST(KernelDispatchTest, DetectedTierIsAvailableAndGaugeReportsIt) {
  const KernelTier detected = gf2k::DetectedKernelTier();
  EXPECT_TRUE(gf2k::KernelTierAvailable(detected));
  EXPECT_EQ(gf2k::ActiveKernelTier(), detected);
  EXPECT_EQ(obs::Registry::Global().GetGauge("mcf0_hash_kernel_tier")->Value(),
            static_cast<int64_t>(detected));
}

TEST(KernelDispatchTest, ForceOverridesActiveTierAndRestores) {
  obs::Gauge* gauge = obs::Registry::Global().GetGauge("mcf0_hash_kernel_tier");
  {
    ScopedTier force(KernelTier::kPortable);
    EXPECT_EQ(gf2k::ActiveKernelTier(), KernelTier::kPortable);
    EXPECT_EQ(gauge->Value(), 0);
  }
  EXPECT_EQ(gf2k::ActiveKernelTier(), gf2k::DetectedKernelTier());
  EXPECT_EQ(gauge->Value(),
            static_cast<int64_t>(gf2k::DetectedKernelTier()));
}

TEST(KernelDispatchTest, TierNamesAreStable) {
  EXPECT_STREQ(gf2k::KernelTierName(KernelTier::kPortable), "portable");
  EXPECT_STREQ(gf2k::KernelTierName(KernelTier::kClmul), "clmul");
  EXPECT_STREQ(gf2k::KernelTierName(KernelTier::kPmull), "pmull");
  EXPECT_STREQ(gf2k::KernelTierName(KernelTier::kVpclmul), "vpclmul");
}

// ---- scalar/SIMD parity ----------------------------------------------------

TEST(KernelParityTest, CarrylessMulMatchesPortable) {
  const auto hw = HardwareTier();
  if (!hw.has_value()) {
    GTEST_SKIP() << "no hardware carry-less multiply tier on this CPU; "
                    "portable tier is the reference and trivially agrees";
  }
  Rng rng(2024);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t a = rng.NextU64();
    const uint64_t b = rng.NextU64();
    const auto soft = gf2k::CarrylessMulWithTier(KernelTier::kPortable, a, b);
    const auto hard = gf2k::CarrylessMulWithTier(*hw, a, b);
    ASSERT_EQ(soft.hi, hard.hi) << "a=" << a << " b=" << b;
    ASSERT_EQ(soft.lo, hard.lo) << "a=" << a << " b=" << b;
  }
}

TEST(KernelParityTest, MulMatchesPortableForEveryWidth) {
  const auto hw = HardwareTier();
  if (!hw.has_value()) {
    GTEST_SKIP() << "no hardware carry-less multiply tier on this CPU";
  }
  Rng rng(2025);
  for (int w = 1; w <= 64; ++w) {
    const Gf2Field field(w);
    const uint64_t mask = WidthMask(w);
    for (int i = 0; i < 300; ++i) {
      const uint64_t a = rng.NextU64() & mask;
      const uint64_t b = rng.NextU64() & mask;
      const uint64_t soft = gf2k::MulWithTier(KernelTier::kPortable, a, b, w,
                                              field.modulus_low());
      const uint64_t hard =
          gf2k::MulWithTier(*hw, a, b, w, field.modulus_low());
      ASSERT_EQ(soft, hard) << "w=" << w << " a=" << a << " b=" << b;
      ASSERT_EQ(soft, field.Mul(a, b)) << "w=" << w;
    }
  }
}

TEST(KernelParityTest, HornerBatchMatchesScalarEvalForEveryWidth) {
  // EvalBatch must equal s-1 scalar Horner steps per element, bit for
  // bit, on every available tier and every field width.
  Rng rng(2026);
  for (int w = 1; w <= 64; ++w) {
    const Gf2Field field(w);
    const PolynomialHash hash = PolynomialHash::Sample(&field, 5, rng);
    std::vector<uint64_t> xs(97);
    for (auto& x : xs) x = rng.NextU64();
    std::vector<uint64_t> want(xs.size());
    for (size_t i = 0; i < xs.size(); ++i) want[i] = hash.Eval(xs[i]);

    for (const KernelTier tier :
         {KernelTier::kPortable, KernelTier::kClmul, KernelTier::kPmull,
          KernelTier::kVpclmul}) {
      if (!gf2k::KernelTierAvailable(tier)) continue;
      ScopedTier force(tier);
      std::vector<uint64_t> got(xs.size());
      hash.EvalBatch(xs, got);
      ASSERT_EQ(got, want) << "w=" << w << " tier="
                           << gf2k::KernelTierName(tier);
    }
  }
}

// ---- fused Estimation-row kernel --------------------------------------------

/// The per-hash reference the fused kernel replaces: Horner Eval plus
/// TrailZero64 per (point, hash), cells raised to the maximum.
void ReferenceAbsorb(const std::vector<PolynomialHash>& hashes,
                     std::span<const uint64_t> xs, std::vector<int>& cells,
                     int w) {
  for (size_t j = 0; j < hashes.size(); ++j) {
    for (const uint64_t x : xs) {
      cells[j] = std::max(cells[j], TrailZero64(hashes[j].Eval(x), w));
    }
  }
}

/// hashes' coefficients k-major and zero-padded to the largest s — the
/// layout TrailZeroMaxBatch takes.
std::vector<uint64_t> PackKMajor(const std::vector<PolynomialHash>& hashes) {
  size_t s = 0;
  for (const auto& h : hashes) s = std::max(s, h.coeffs().size());
  std::vector<uint64_t> packed(s * hashes.size(), 0);
  for (size_t j = 0; j < hashes.size(); ++j) {
    for (size_t k = 0; k < hashes[j].coeffs().size(); ++k) {
      packed[k * hashes.size() + j] = hashes[j].coeffs()[k];
    }
  }
  return packed;
}

class FusedKernelTest : public ::testing::TestWithParam<KernelTier> {};

TEST_P(FusedKernelTest, MatchesPerHashEvalForEveryWidthSAndLaneTail) {
  // Every field width, s in {1, 2, 3, 4, 8}, 1 / 7 / 150 polynomials
  // and 0 / 1 / 7 / 8 / 9 / 257 points (the 8-lane tails), starting from
  // nonzero cells so the max-with-existing path is covered too.
  const KernelTier tier = GetParam();
  if (!gf2k::KernelTierAvailable(tier)) {
    GTEST_SKIP() << gf2k::KernelTierName(tier) << " is not available on "
                 << "this CPU";
  }
  Rng rng(2027 + static_cast<int>(tier));
  for (int w = 1; w <= 64; ++w) {
    const Gf2Field field(w);
    std::vector<uint64_t> xs(257);
    for (auto& x : xs) x = rng.NextU64();  // high bits exercise the mask
    for (const int s : {1, 2, 3, 4, 8}) {
      std::vector<PolynomialHash> all;
      for (int j = 0; j < 150; ++j) {
        all.push_back(PolynomialHash::Sample(&field, s, rng));
      }
      for (const size_t polys : {size_t{1}, size_t{7}, size_t{150}}) {
        const std::vector<PolynomialHash> hashes(all.begin(),
                                                 all.begin() + polys);
        const std::vector<uint64_t> packed = PackKMajor(hashes);
        std::vector<int> start(polys);
        for (auto& c : start) c = static_cast<int>(rng.NextBelow(w / 2 + 1));
        for (const size_t points : {0, 1, 7, 8, 9, 257}) {
          const std::span<const uint64_t> block(xs.data(), points);
          std::vector<int> want = start;
          ReferenceAbsorb(hashes, block, want, w);
          std::vector<int> got = start;
          gf2k::TrailZeroMaxBatchWithTier(tier, packed, block, got, w,
                                          field.modulus_low());
          ASSERT_EQ(got, want) << "w=" << w << " s=" << s << " polys="
                               << polys << " points=" << points;
        }
      }
    }
  }
}

TEST_P(FusedKernelTest, LongPolynomialsMatchPerHashEval) {
  // s past the kernels' stack scratch (16 powers): the heap path.
  const KernelTier tier = GetParam();
  if (!gf2k::KernelTierAvailable(tier)) {
    GTEST_SKIP() << gf2k::KernelTierName(tier) << " is not available on "
                 << "this CPU";
  }
  Rng rng(2029);
  for (const int w : {7, 32, 64}) {
    const Gf2Field field(w);
    std::vector<PolynomialHash> hashes;
    for (int j = 0; j < 9; ++j) {
      hashes.push_back(PolynomialHash::Sample(&field, 20, rng));
    }
    std::vector<uint64_t> xs(137);
    for (auto& x : xs) x = rng.NextU64();
    std::vector<int> want(hashes.size(), 0);
    ReferenceAbsorb(hashes, xs, want, w);
    std::vector<int> got(hashes.size(), 0);
    gf2k::TrailZeroMaxBatchWithTier(tier, PackKMajor(hashes), xs, got, w,
                                    field.modulus_low());
    EXPECT_EQ(got, want) << "w=" << w;
  }
}

TEST_P(FusedKernelTest, DenseModulusNeedsMoreFolds) {
  // Every in-tree field folds at most twice; a dense modulus of degree
  // w - 1 needs up to w - 1 folds. The arithmetic mod x^w + mod_low is
  // well defined for any mod_low, so the portable HornerBatch is the
  // reference.
  const KernelTier tier = GetParam();
  if (!gf2k::KernelTierAvailable(tier)) {
    GTEST_SKIP() << gf2k::KernelTierName(tier) << " is not available on "
                 << "this CPU";
  }
  Rng rng(2030);
  for (const int w : {3, 17, 32, 33, 64}) {
    const uint64_t mod_low = WidthMask(w) >> 1;
    const size_t polys = 5;
    const int s = 4;
    std::vector<uint64_t> packed(polys * s);
    for (auto& c : packed) c = rng.NextU64() & WidthMask(w);
    std::vector<uint64_t> xs(137);
    for (auto& x : xs) x = rng.NextU64();
    std::vector<int> want(polys, 0);
    std::vector<uint64_t> coeffs(s);
    std::vector<uint64_t> out(xs.size());
    for (size_t j = 0; j < polys; ++j) {
      for (int k = 0; k < s; ++k) coeffs[k] = packed[k * polys + j];
      gf2k::HornerBatchWithTier(KernelTier::kPortable, coeffs, xs, out, w,
                                mod_low);
      for (const uint64_t h : out) {
        want[j] = std::max(want[j], TrailZero64(h, w));
      }
    }
    std::vector<int> got(polys, 0);
    gf2k::TrailZeroMaxBatchWithTier(tier, packed, xs, got, w, mod_low);
    EXPECT_EQ(got, want) << "w=" << w;
  }
}

TEST_P(FusedKernelTest, MixedSRowDecodedFromEmbeddedV2Frame) {
  // An embedded frame carries every hash's own s; the row zero-pads the
  // shorter ones to the largest. Absorbing after a decode must match
  // the per-hash reference exactly.
  const KernelTier tier = GetParam();
  if (!gf2k::KernelTierAvailable(tier)) {
    GTEST_SKIP() << gf2k::KernelTierName(tier) << " is not available on "
                 << "this CPU";
  }
  Rng rng(2028);
  for (const int w : {5, 32, 41, 64}) {
    const Gf2Field field(w);
    std::vector<PolynomialHash> hashes;
    for (const int s : {1, 4, 2, 8, 3, 1, 6, 4, 2, 5, 7}) {
      hashes.push_back(PolynomialHash::Sample(&field, s, rng));
    }
    const EstimationSketchRow original(&field, hashes,
                                       std::vector<int>(hashes.size(), 0));
    const std::string frame =
        SketchCodec::Encode(original, SketchCodec::kFormatV2);
    auto decoded = SketchCodec::DecodeEstimationRow(frame, &field);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EstimationSketchRow row = std::move(decoded).value();
    ASSERT_EQ(row.hashes(), hashes);

    std::vector<uint64_t> xs(101);
    for (auto& x : xs) x = rng.NextU64();
    std::vector<int> want(hashes.size(), 0);
    ReferenceAbsorb(hashes, xs, want, w);
    ScopedTier force(tier);
    row.Add(std::span<const uint64_t>(xs));
    EXPECT_EQ(row.cells(), want) << "w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, FusedKernelTest,
    ::testing::Values(KernelTier::kPortable, KernelTier::kClmul,
                      KernelTier::kPmull, KernelTier::kVpclmul),
    [](const ::testing::TestParamInfo<KernelTier>& info) {
      return std::string(gf2k::KernelTierName(info.param));
    });

// ---- packed Toeplitz -------------------------------------------------------

TEST(PackedToeplitzTest, RowMatchesGetReference) {
  Rng rng(31);
  for (const auto& [m, n] : {std::pair{1, 1}, {3, 7}, {24, 24}, {64, 64},
                            {70, 129}, {129, 70}, {200, 3}}) {
    const ToeplitzMatrix t = ToeplitzMatrix::Random(m, n, rng);
    for (int i = 0; i < m; ++i) {
      const BitVec row = t.Row(i);
      ASSERT_EQ(row.size(), n);
      for (int j = 0; j < n; ++j) {
        ASSERT_EQ(row.Get(j), t.Get(i, j)) << "m=" << m << " n=" << n
                                           << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(PackedToeplitzTest, MulMatchesRowDotReference) {
  Rng rng(32);
  for (const auto& [m, n] : {std::pair{1, 1}, {5, 9}, {24, 24}, {64, 64},
                            {100, 131}, {131, 100}}) {
    const ToeplitzMatrix t = ToeplitzMatrix::Random(m, n, rng);
    for (int trial = 0; trial < 8; ++trial) {
      const BitVec x = BitVec::Random(n, rng);
      const BitVec y = t.Mul(x);
      ASSERT_EQ(y.size(), m);
      for (int i = 0; i < m; ++i) {
        bool acc = false;
        for (int j = 0; j < n; ++j) acc ^= t.Get(i, j) && x.Get(j);
        ASSERT_EQ(y.Get(i), acc) << "m=" << m << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(PackedToeplitzTest, SliceMatchesPerBitReference) {
  Rng rng(33);
  const BitVec v = BitVec::Random(301, rng);
  for (const auto& [start, len] :
       {std::pair{0, 301}, {0, 0}, {63, 64}, {64, 64}, {65, 1}, {130, 171},
        {300, 1}, {17, 99}}) {
    const BitVec s = v.Slice(start, len);
    ASSERT_EQ(s.size(), len);
    for (int i = 0; i < len; ++i) {
      ASSERT_EQ(s.Get(i), v.Get(start + i)) << "start=" << start
                                            << " len=" << len << " i=" << i;
    }
  }
}

// ---- packed affine apply ---------------------------------------------------

TEST(PackedAffineTest, Eval64MatchesBitVecEval) {
  Rng rng(34);
  for (const auto& [n, m] : {std::pair{1, 1}, {8, 8}, {24, 24}, {24, 3},
                            {64, 64}, {33, 17}}) {
    const AffineHash h = AffineHash::SampleXor(n, m, rng);
    for (int trial = 0; trial < 64; ++trial) {
      const uint64_t x = rng.NextU64() & WidthMask(n);
      const uint64_t want = h.Eval(BitVec::FromU64(x, n)).ToU64();
      ASSERT_EQ(h.Eval64(x), want) << "n=" << n << " m=" << m << " x=" << x;
    }
  }
}

TEST(PackedAffineTest, EvalPrefixMatchesRowDotReference) {
  Rng rng(35);
  const AffineHash h = AffineHash::SampleToeplitz(24, 24, rng);
  for (int trial = 0; trial < 32; ++trial) {
    const BitVec x = BitVec::Random(24, rng);
    for (int l = 0; l <= 24; ++l) {
      const BitVec y = h.EvalPrefix(x, l);
      ASSERT_EQ(y.size(), l);
      for (int i = 0; i < l; ++i) {
        const bool want = (h.A().Row(i).DotF2(x) != h.b().Get(i));
        ASSERT_EQ(y.Get(i), want) << "l=" << l << " i=" << i;
      }
    }
  }
}

// ---- byte identity ---------------------------------------------------------

F0Params KernelTestParams(F0Algorithm algorithm) {
  F0Params params;
  params.n = 24;
  params.eps = 0.8;
  params.delta = 0.2;
  params.algorithm = algorithm;
  params.seed = 99;
  params.thresh_override = 20;
  params.rows_override = 5;
  params.s_override = 4;
  return params;
}

TEST(SpanAddByteIdentityTest, SpanAddEqualsItemAddOnEveryTierAndAlgorithm) {
  // The pin behind the whole PR: kernels and batch surfaces change the
  // implementation of the arithmetic, never its results. A sketch built
  // via span-Add on any tier must encode to exactly the bytes of an
  // item-by-item build on the portable tier.
  Rng rng(36);
  std::vector<uint64_t> xs(4000);
  for (auto& x : xs) x = rng.NextBelow(700);

  for (const F0Algorithm algorithm :
       {F0Algorithm::kBucketing, F0Algorithm::kMinimum,
        F0Algorithm::kEstimation}) {
    const F0Params params = KernelTestParams(algorithm);

    std::string reference;
    {
      ScopedTier force(KernelTier::kPortable);
      F0Estimator scalar(params);
      for (const uint64_t x : xs) scalar.Add(x);
      reference = SketchCodec::Encode(scalar);
    }

    for (const KernelTier tier :
         {KernelTier::kPortable, KernelTier::kClmul, KernelTier::kPmull,
          KernelTier::kVpclmul}) {
      if (!gf2k::KernelTierAvailable(tier)) continue;
      ScopedTier force(tier);
      F0Estimator batched(params);
      batched.Add(std::span<const uint64_t>(xs));
      EXPECT_EQ(SketchCodec::Encode(batched), reference)
          << "algorithm=" << static_cast<int>(algorithm)
          << " tier=" << gf2k::KernelTierName(tier);

      // Mixed granularity: odd-sized sub-batches land on the same bytes.
      F0Estimator chunked(params);
      size_t i = 0;
      size_t chunk = 3;
      while (i < xs.size()) {
        const size_t len = std::min(chunk, xs.size() - i);
        chunked.Add(std::span<const uint64_t>(xs.data() + i, len));
        i += len;
        chunk = chunk * 2 + 1;
      }
      EXPECT_EQ(SketchCodec::Encode(chunked), reference)
          << "algorithm=" << static_cast<int>(algorithm)
          << " tier=" << gf2k::KernelTierName(tier);
    }
  }
}

}  // namespace
}  // namespace mcf0
