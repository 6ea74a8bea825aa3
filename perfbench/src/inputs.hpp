// Seeded inputs and sketch parameters shared by every workload. The
// program receives only what these functions generate; the same seed
// always gives the same inputs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/sharded_engine.hpp"
#include "setstream/structured_f0.hpp"
#include "streaming/f0_sketch.hpp"

namespace perfbench {

/// The four legs every workload runs: the three §3 raw-stream algorithms
/// and the §5 structured stream.
enum Leg : int { kBucketing = 0, kMinimum = 1, kEstimation = 2, kStructured = 3 };
inline constexpr int kNumLegs = 4;
inline constexpr int kNumRawLegs = 3;
inline constexpr std::array<const char*, kNumLegs> kLegNames = {
    "bucketing", "minimum", "estimation", "structured"};

/// The §5 item kinds of the structured leg.
enum ItemKind : int { kDnf = 0, kRange = 1, kAffine = 2 };
inline constexpr int kNumItemKinds = 3;
inline constexpr std::array<const char*, kNumItemKinds> kItemKindNames = {
    "dnf", "range", "affine"};

/// Universe width of the raw legs and of the structured leg.
inline constexpr int kRawBits = 32;
inline constexpr int kStructuredBits = 16;

/// Paper defaults (eps 0.8, delta 0.2: Thresh 150, t = 82 rows), the
/// given algorithm, hash seed derived from the workload seed.
mcf0::F0Params RawParams(Leg leg, uint64_t seed);
mcf0::StructuredF0Params StructuredParams(uint64_t seed);

/// `length` uniform values of {0,1}^32: nearly all distinct, so every
/// row saturates and most items are rejected after hashing.
std::vector<uint64_t> DistinctHeavyStream(size_t length, uint64_t seed);

/// `length` draws from a fixed support of `support` random values: the
/// same few items over and over.
std::vector<uint64_t> DuplicateHeavyStream(size_t length, uint64_t support,
                                           uint64_t seed);

/// A seeded mix of DNF terms, multi-dimensional ranges and affine
/// spaces over {0,1}^kStructuredBits, kinds drawn uniformly.
struct StructuredInput {
  std::vector<mcf0::StructuredItem> items;
  std::vector<ItemKind> kinds;
};
StructuredInput MakeStructuredItems(size_t count, uint64_t seed);

/// Derives an independent 64-bit seed for one use of the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench
