#include "hash/hash_family.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/rng.hpp"

namespace mcf0 {

AffineHash::AffineHash(Gf2Matrix a, BitVec b, AffineHashKind kind,
                       size_t repr_bits)
    : a_(std::move(a)), b_(std::move(b)), kind_(kind), repr_bits_(repr_bits) {
  if (a_.cols() <= 64) {
    packed_rows_.reserve(static_cast<size_t>(a_.rows()));
    for (int i = 0; i < a_.rows(); ++i) {
      packed_rows_.push_back(a_.cols() == 0 ? 0 : a_.Row(i).words()[0]);
    }
  }
}

AffineHash AffineHash::SampleToeplitz(int n, int m, Rng& rng) {
  MCF0_CHECK(n >= 1 && m >= 1);
  ToeplitzMatrix t = ToeplitzMatrix::Random(m, n, rng);
  BitVec b = BitVec::Random(m, rng);
  // Densify once: downstream consumers (prefix slices, affine composition,
  // XOR clause extraction) all need row access; the Theta(n+m) seed size is
  // what we report as the representation cost.
  const size_t repr =
      static_cast<size_t>(t.SeedBits()) + static_cast<size_t>(m);
  return AffineHash(t.ToDense(), std::move(b), AffineHashKind::kToeplitz, repr);
}

AffineHash AffineHash::SampleXor(int n, int m, Rng& rng) {
  MCF0_CHECK(n >= 1 && m >= 1);
  Gf2Matrix a = Gf2Matrix::Random(m, n, rng);
  BitVec b = BitVec::Random(m, rng);
  const size_t repr = static_cast<size_t>(m) * static_cast<size_t>(n) +
                      static_cast<size_t>(m);
  return AffineHash(std::move(a), std::move(b), AffineHashKind::kXor, repr);
}

AffineHash AffineHash::SampleSparseXor(int n, int m, double row_density,
                                       Rng& rng) {
  MCF0_CHECK(n >= 1 && m >= 1);
  MCF0_CHECK(row_density > 0.0 && row_density <= 1.0);
  Gf2Matrix a = Gf2Matrix::RandomSparse(m, n, row_density, rng);
  BitVec b = BitVec::Random(m, rng);
  const size_t repr = static_cast<size_t>(m) * static_cast<size_t>(n) +
                      static_cast<size_t>(m);
  return AffineHash(std::move(a), std::move(b), AffineHashKind::kSparseXor,
                    repr);
}

AffineHash AffineHash::FromParts(Gf2Matrix a, BitVec b, AffineHashKind kind,
                                 size_t repr_bits) {
  MCF0_CHECK(b.size() == a.rows());
  const size_t repr = repr_bits > 0
                          ? repr_bits
                          : static_cast<size_t>(a.rows()) *
                                    static_cast<size_t>(a.cols()) +
                                static_cast<size_t>(a.rows());
  return AffineHash(std::move(a), std::move(b), kind, repr);
}

AffineHash AffineHash::FromToeplitzSeed(int n, int m, const BitVec& seed,
                                        BitVec b, size_t repr_bits) {
  MCF0_CHECK(n >= 1 && m >= 1);
  MCF0_CHECK(seed.size() == n + m - 1);
  return FromParts(ToeplitzMatrix(m, n, seed).ToDense(), std::move(b),
                   AffineHashKind::kToeplitz, repr_bits);
}

bool AffineHash::HasToeplitzMatrix() const {
  // Constant along diagonals: every entry equals its upper-left neighbor.
  for (int i = 1; i < m(); ++i) {
    for (int j = 1; j < n(); ++j) {
      if (a_.Get(i, j) != a_.Get(i - 1, j - 1)) return false;
    }
  }
  return true;
}

BitVec AffineHash::ToeplitzSeed() const {
  MCF0_DCHECK(HasToeplitzMatrix());
  // T[i][j] = seed[i - j + n - 1]: indices [0, n) come from the first row
  // (right to left), indices [n, n + m - 1) run down the first column.
  BitVec seed(n() + m() - 1);
  for (int j = 0; j < n(); ++j) seed.Set(n() - 1 - j, a_.Get(0, j));
  for (int i = 1; i < m(); ++i) seed.Set(i + n() - 1, a_.Get(i, 0));
  return seed;
}

BitVec AffineHash::Eval(const BitVec& x) const {
  if (n() > 64) return a_.MulAffine(x, b_);
  MCF0_CHECK(x.size() == n());
  const uint64_t xw = x.words().empty() ? 0 : x.words()[0];
  std::vector<uint64_t> words(static_cast<size_t>(out_words()));
  for (int w = 0; w < out_words(); ++w) {
    words[static_cast<size_t>(w)] = EvalWord(xw, w);
  }
  return BitVec::FromWords(m(), std::move(words));
}

uint64_t AffineHash::EvalWord(uint64_t packed_x, int w) const {
  MCF0_DCHECK(n() <= 64 && w >= 0 && w < out_words());
  return EvalBits(packed_x, 64 * w, std::min(64, m() - 64 * w));
}

uint64_t AffineHash::EvalBits(uint64_t packed_x, int first, int count) const {
  const uint64_t* rows = packed_rows_.data() + first;
  // Assembled most-significant-first, then left-aligned: output bit
  // first + k lands at word bit 63 - k.
  uint64_t out = 0;
  for (int k = 0; k < count; ++k) {
    out = (out << 1) |
          static_cast<uint64_t>(std::popcount(rows[k] & packed_x) & 1);
  }
  return (out << (64 - count)) ^ b_.words()[static_cast<size_t>(first / 64)];
}

BitVec AffineHash::EvalPrefix(const BitVec& x, int l) const {
  MCF0_CHECK(l >= 0 && l <= m());
  if (n() <= 64) {
    // Word-sized input: the first l output bits, word by word.
    const uint64_t xw = x.words().empty() ? 0 : x.words()[0];
    std::vector<uint64_t> words(static_cast<size_t>((l + 63) / 64));
    for (size_t w = 0; w < words.size(); ++w) {
      const int first = 64 * static_cast<int>(w);
      words[w] = EvalBits(xw, first, std::min(64, l - first));
    }
    return BitVec::FromWords(l, std::move(words));
  }
  BitVec y(l);
  for (int i = 0; i < l; ++i) {
    if (a_.Row(i).DotF2(x) != b_.Get(i)) y.Set(i, true);
  }
  return y;
}

uint64_t AffineHash::Eval64(uint64_t x) const {
  MCF0_CHECK(n() <= 64 && m() <= 64);
  return EvalWord(PackInput(x), 0) >> (64 - m());
}

AffineHash AffineHash::PrefixHash(int l) const {
  MCF0_CHECK(l >= 1 && l <= m());
  return AffineHash(a_.PrefixRows(l), b_.Prefix(l), kind_, repr_bits_);
}

size_t AffineHash::RepresentationBits() const { return repr_bits_; }

}  // namespace mcf0
