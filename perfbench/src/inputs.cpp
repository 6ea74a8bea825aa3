#include "inputs.hpp"

#include <utility>

#include "common/rng.hpp"
#include "formula/formula.hpp"
#include "gf2/bitvec.hpp"
#include "gf2/gf2_matrix.hpp"
#include "setstream/range.hpp"

namespace perfbench {

using mcf0::Rng;

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed ^ (salt * 0x9E3779B97F4A7C15ull));
  return rng.NextU64();
}

mcf0::F0Params RawParams(Leg leg, uint64_t seed) {
  mcf0::F0Params params;
  params.n = kRawBits;
  params.eps = 0.8;
  params.delta = 0.2;
  params.algorithm = leg == kBucketing ? mcf0::F0Algorithm::kBucketing
                     : leg == kMinimum ? mcf0::F0Algorithm::kMinimum
                                       : mcf0::F0Algorithm::kEstimation;
  params.seed = SubSeed(seed, 100 + static_cast<uint64_t>(leg));
  return params;
}

mcf0::StructuredF0Params StructuredParams(uint64_t seed) {
  mcf0::StructuredF0Params params;
  params.n = kStructuredBits;
  params.eps = 0.8;
  params.delta = 0.2;
  params.algorithm = mcf0::StructuredF0Algorithm::kBucketing;
  params.seed = SubSeed(seed, 200);
  return params;
}

std::vector<uint64_t> DistinctHeavyStream(size_t length, uint64_t seed) {
  Rng rng(SubSeed(seed, 1));
  std::vector<uint64_t> xs(length);
  for (uint64_t& x : xs) x = rng.NextU64() & 0xFFFFFFFFull;
  return xs;
}

std::vector<uint64_t> DuplicateHeavyStream(size_t length, uint64_t support,
                                           uint64_t seed) {
  Rng rng(SubSeed(seed, 2));
  std::vector<uint64_t> values(support);
  for (uint64_t& v : values) v = rng.NextU64() & 0xFFFFFFFFull;
  std::vector<uint64_t> xs(length);
  for (uint64_t& x : xs) x = values[rng.NextBelow(support)];
  return xs;
}

StructuredInput MakeStructuredItems(size_t count, uint64_t seed) {
  // Item *shapes* (kind, term width, range side lengths, constraint
  // count) come from a fixed stream, the values from the seed: the work a
  // pass does then varies little from seed to seed, so runs with
  // different seeds measure the same thing.
  Rng shape(0x5eed5ba9e5ull);
  Rng value(SubSeed(seed, 3));
  StructuredInput input;
  input.items.reserve(count);
  input.kinds.reserve(count);
  while (input.items.size() < count) {
    const auto kind = static_cast<ItemKind>(shape.NextBelow(kNumItemKinds));
    if (kind == kDnf) {
      // One term over 4..7 distinct variables: 2^(n - w) solutions.
      const int width = 4 + static_cast<int>(shape.NextBelow(4));
      std::vector<int> vars(kStructuredBits);
      for (int v = 0; v < kStructuredBits; ++v) vars[v] = v;
      std::vector<mcf0::Lit> lits;
      for (int i = 0; i < width; ++i) {
        const int pick = i + static_cast<int>(value.NextBelow(
                                 static_cast<uint64_t>(kStructuredBits - i)));
        std::swap(vars[i], vars[pick]);
        lits.emplace_back(vars[i], value.NextBelow(2) == 1);
      }
      input.items.emplace_back(
          std::vector<mcf0::Term>{*mcf0::Term::Make(std::move(lits))});
    } else if (kind == kRange) {
      // Two dimensions of 8 bits (a range costs O((2 bits)^dims) DNF
      // terms). Each side [lo, lo + w) is aligned to the power of two
      // covering w, so its term decomposition depends on w alone.
      constexpr int kDims = 2;
      constexpr int kBitsPerDim = kStructuredBits / kDims;
      mcf0::MultiDimRange range(kDims, kBitsPerDim);
      for (int j = 0; j < kDims; ++j) {
        const uint64_t w = 6 + shape.NextBelow(43);  // 6..48
        uint64_t align = 1;
        while (align < w) align <<= 1;
        const uint64_t lo =
            value.NextBelow((uint64_t{1} << kBitsPerDim) / align) * align;
        range.SetDim(j, mcf0::DimRange{lo, lo + w - 1, 0});
      }
      input.items.emplace_back(std::move(range));
    } else {
      // {x : A x = b} with 4..7 random constraints.
      const int rows = 4 + static_cast<int>(shape.NextBelow(4));
      mcf0::Gf2Matrix a = mcf0::Gf2Matrix::Random(rows, kStructuredBits, value);
      mcf0::BitVec b = mcf0::BitVec::Random(rows, value);
      input.items.emplace_back(
          mcf0::AffineSpaceItem{std::move(a), std::move(b)});
    }
    input.kinds.push_back(kind);
  }
  return input;
}

}  // namespace perfbench
