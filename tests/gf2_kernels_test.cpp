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

#include <cstdint>
#include <optional>
#include <span>
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
         {KernelTier::kPortable, KernelTier::kClmul, KernelTier::kPmull}) {
      if (!gf2k::KernelTierAvailable(tier)) continue;
      ScopedTier force(tier);
      std::vector<uint64_t> got(xs.size());
      hash.EvalBatch(xs, got);
      ASSERT_EQ(got, want) << "w=" << w << " tier="
                           << gf2k::KernelTierName(tier);
    }
  }
}

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
         {KernelTier::kPortable, KernelTier::kClmul, KernelTier::kPmull}) {
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
