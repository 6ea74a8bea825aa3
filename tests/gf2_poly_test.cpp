// Tests for GF(2^w) arithmetic and the s-wise independent polynomial hash:
// field axioms over parameterized w, known irreducibility facts, and an
// exact pairwise-independence count for a tiny field.
#include "hash/gf2_poly.hpp"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace mcf0 {
namespace {

TEST(Gf2Field, KnownIrreducibles) {
  // x^2 + x + 1 is the unique irreducible quadratic.
  EXPECT_TRUE(Gf2Field::IsIrreducible(0b11, 2));
  EXPECT_FALSE(Gf2Field::IsIrreducible(0b01, 2));  // x^2 + 1 = (x+1)^2
  // x^3 + x + 1 and x^3 + x^2 + 1 are the irreducible cubics.
  EXPECT_TRUE(Gf2Field::IsIrreducible(0b011, 3));
  EXPECT_TRUE(Gf2Field::IsIrreducible(0b101, 3));
  EXPECT_FALSE(Gf2Field::IsIrreducible(0b111, 3));  // divisible by x+1
  // The AES polynomial x^8 + x^4 + x^3 + x + 1.
  EXPECT_TRUE(Gf2Field::IsIrreducible(0x1B, 8));
  // x^8 + 1 = (x+1)^8 is not irreducible.
  EXPECT_FALSE(Gf2Field::IsIrreducible(0x01, 8));
}

TEST(Gf2Field, EvenConstantTermNeverIrreducible) {
  for (int d = 2; d <= 10; ++d) {
    EXPECT_FALSE(Gf2Field::IsIrreducible(0b10, d));  // divisible by x
  }
}

class Gf2FieldAxioms : public ::testing::TestWithParam<int> {};

TEST_P(Gf2FieldAxioms, RingAxiomsHold) {
  const int w = GetParam();
  const Gf2Field field(w);
  const uint64_t mask = (w == 64) ? ~0ull : ((1ull << w) - 1);
  Rng rng(100 + w);
  for (int trial = 0; trial < 50; ++trial) {
    const uint64_t a = rng.NextU64() & mask;
    const uint64_t b = rng.NextU64() & mask;
    const uint64_t c = rng.NextU64() & mask;
    // Commutativity and associativity of multiplication.
    EXPECT_EQ(field.Mul(a, b), field.Mul(b, a));
    EXPECT_EQ(field.Mul(field.Mul(a, b), c), field.Mul(a, field.Mul(b, c)));
    // Distributivity over addition (XOR).
    EXPECT_EQ(field.Mul(a, b ^ c), field.Mul(a, b) ^ field.Mul(a, c));
    // Identities.
    EXPECT_EQ(field.Mul(a, 1), a);
    EXPECT_EQ(field.Mul(a, 0), 0u);
    // Results stay in-range.
    EXPECT_EQ(field.Mul(a, b) & ~mask, 0u);
  }
}

TEST_P(Gf2FieldAxioms, NonzeroElementsHaveInverses) {
  // a^(2^w - 1) = 1 for a != 0 (multiplicative group order divides 2^w-1),
  // hence a * a^(2^w - 2) = 1.
  const int w = GetParam();
  // Pow is square-and-multiply, so even w = 64 costs at most 128 Muls.
  const Gf2Field field(w);
  const uint64_t mask = (w == 64) ? ~0ull : ((1ull << w) - 1);
  const uint64_t group_order = mask;  // 2^w - 1
  Rng rng(200 + w);
  for (int trial = 0; trial < 20; ++trial) {
    const uint64_t a = (rng.NextU64() & mask);
    if (a == 0) continue;
    EXPECT_EQ(field.Pow(a, group_order), 1u) << "w=" << w << " a=" << a;
    const uint64_t inv = field.Pow(a, group_order - 1);
    EXPECT_EQ(field.Mul(a, inv), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, Gf2FieldAxioms,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 24, 32, 47,
                                           63, 64),
                         ::testing::PrintToStringParamName());

TEST(Gf2Field, FrobeniusIsAdditive) {
  // Squaring is linear in characteristic 2: (a+b)^2 = a^2 + b^2.
  const Gf2Field field(16);
  Rng rng(303);
  for (int trial = 0; trial < 40; ++trial) {
    const uint64_t a = rng.NextU64() & 0xFFFF;
    const uint64_t b = rng.NextU64() & 0xFFFF;
    EXPECT_EQ(field.Mul(a ^ b, a ^ b), field.Mul(a, a) ^ field.Mul(b, b));
  }
}

TEST(PolynomialHash, ConstantPolynomialIsConstant) {
  const Gf2Field field(8);
  const PolynomialHash h(&field, {42});
  for (uint64_t x = 0; x < 256; ++x) EXPECT_EQ(h.Eval(x), 42u);
}

TEST(PolynomialHash, LinearPolynomialMatchesDirectEvaluation) {
  const Gf2Field field(8);
  const PolynomialHash h(&field, {7, 19});  // 19 x + 7
  for (uint64_t x = 0; x < 256; ++x) {
    EXPECT_EQ(h.Eval(x), field.Mul(19, x) ^ 7);
  }
}

TEST(PolynomialHash, HornerMatchesNaivePowers) {
  // Horner evaluation must agree with the explicit sum a_i * x^i.
  const Gf2Field field(12);
  const uint64_t coeffs[] = {3, 1, 4, 1, 5};
  const PolynomialHash g(&field, {3, 1, 4, 1, 5});
  for (const uint64_t x : {0ull, 1ull, 2ull, 1000ull, 4095ull}) {
    uint64_t expect = 0;
    for (int i = 0; i < 5; ++i) {
      expect ^= field.Mul(coeffs[i], field.Pow(x, i));
    }
    EXPECT_EQ(g.Eval(x), expect);
  }
}

TEST(PolynomialHash, PairwiseIndependenceExactTinyField) {
  // Over GF(2^3), degree-1 polynomials {a x + b}: for fixed x1 != x2 each
  // output pair (y1, y2) must occur for exactly one (a, b).
  const Gf2Field field(3);
  const uint64_t x1 = 3;
  const uint64_t x2 = 6;
  std::map<std::pair<uint64_t, uint64_t>, int> pair_counts;
  for (uint64_t a = 0; a < 8; ++a) {
    for (uint64_t b = 0; b < 8; ++b) {
      const PolynomialHash h(&field, {b, a});
      pair_counts[{h.Eval(x1), h.Eval(x2)}]++;
    }
  }
  EXPECT_EQ(pair_counts.size(), 64u);
  for (const auto& [pair, count] : pair_counts) EXPECT_EQ(count, 1);
}

TEST(Gf2FieldModulusCache, OneScanPerDegree) {
  // Construction memoizes the irreducibility scan per degree: the first
  // Gf2Field(w) in the process scans (bumping the counter once), every
  // later construction is a cache hit. Decode/replay paths rebuild
  // fields constantly, so this is pinned, not just hoped for.
  obs::Counter* scans =
      obs::Registry::Global().GetCounter("mcf0_gf2_modulus_scans_total");
  const Gf2Field warm(29);  // ensures degree 29 has been scanned
  const uint64_t before = scans->Value();
  for (int i = 0; i < 5; ++i) {
    const Gf2Field again(29);
    EXPECT_EQ(again.modulus_low(), warm.modulus_low());
  }
  EXPECT_EQ(scans->Value(), before);
  // There are only 64 possible degrees, so the process-wide total can
  // never exceed 64 no matter how many fields were built.
  EXPECT_LE(scans->Value(), 64u);
}

TEST(Gf2FieldModulusCache, ConcurrentConstructionScansOnce) {
  obs::Counter* scans =
      obs::Registry::Global().GetCounter("mcf0_gf2_modulus_scans_total");
  const uint64_t before = scans->Value();
  std::vector<std::thread> threads;
  std::vector<uint64_t> moduli(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([t, &moduli] {
      const Gf2Field field(43);
      moduli[static_cast<size_t>(t)] = field.modulus_low();
    });
  }
  for (auto& thread : threads) thread.join();
  for (const uint64_t low : moduli) EXPECT_EQ(low, moduli[0]);
  // At most one new scan (zero if another test already built degree 43).
  EXPECT_LE(scans->Value(), before + 1);
}

TEST(TrailZero64, Definition) {
  EXPECT_EQ(TrailZero64(0, 16), 16);
  EXPECT_EQ(TrailZero64(1, 16), 0);
  EXPECT_EQ(TrailZero64(0b1000, 16), 3);
  EXPECT_EQ(TrailZero64(1ull << 15, 16), 15);
  // The cap: a set bit at or past w reads as w.
  EXPECT_EQ(TrailZero64(1ull << 20, 16), 16);
  // w = 1: a one-bit field.
  EXPECT_EQ(TrailZero64(0, 1), 1);
  EXPECT_EQ(TrailZero64(1, 1), 0);
  EXPECT_EQ(TrailZero64(0b10, 1), 1);
  // w = 64, including the top bit.
  EXPECT_EQ(TrailZero64(0, 64), 64);
  EXPECT_EQ(TrailZero64(1, 64), 0);
  EXPECT_EQ(TrailZero64(1ull << 63, 64), 63);
  EXPECT_EQ(TrailZero64(~0ull << 40, 64), 40);
}

}  // namespace
}  // namespace mcf0
