/// \file hash_family.hpp
/// \brief The paper's 2-wise independent affine hash families.
///
/// An `AffineHash` is one sampled function h(x) = A x + b from {0,1}^n to
/// {0,1}^m. Three sampling distributions are provided:
///
///  * H_Toeplitz(n, m): A is a uniformly random Toeplitz matrix — Theta(n+m)
///    bits of representation (§2).
///  * H_xor(n, m): A is a uniformly random dense matrix — Theta(n*m) bits.
///  * Sparse XOR (§6 future work): each entry of A is 1 with a given row
///    density, following Meel & Akshay's sparse hashing line of work.
///
/// All variants expose the prefix-slice h_l (first l rows of A, first l bits
/// of b), the structural property that powers the Bucketing algorithms: the
/// cells h_l^{-1}(0^l) are nested as l grows.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gf2/bitvec.hpp"
#include "gf2/gf2_matrix.hpp"
#include "gf2/toeplitz.hpp"

namespace mcf0 {

class Rng;

/// Sampling distribution of an AffineHash.
enum class AffineHashKind { kToeplitz, kXor, kSparseXor };

/// One function h(x) = A x + b; see file comment.
class AffineHash {
 public:
  /// Samples from H_Toeplitz(n, m).
  static AffineHash SampleToeplitz(int n, int m, Rng& rng);

  /// Samples from H_xor(n, m).
  static AffineHash SampleXor(int n, int m, Rng& rng);

  /// Samples a sparse-XOR hash: A entries Bernoulli(row_density), b uniform.
  static AffineHash SampleSparseXor(int n, int m, double row_density, Rng& rng);

  /// Wraps explicit parts (used by tests, by distributed coordinators that
  /// ship hash functions to sites, and by the sketch codec when rehydrating
  /// serialized hash state). `repr_bits` preserves the original
  /// representation cost across a serialize/deserialize round trip; 0 means
  /// "dense": Theta(n*m + m), correct for (sparse) XOR matrices.
  static AffineHash FromParts(Gf2Matrix a, BitVec b, AffineHashKind kind,
                              size_t repr_bits = 0);

  /// Rebuilds h(x) = A x + b from a Toeplitz diagonal seed of n + m - 1
  /// bits — the wire-format-v2 reconstruction ctor (docs/wire_format.md):
  /// a serialized Toeplitz hash ships only its seed and offset, not the
  /// materialized rows.
  static AffineHash FromToeplitzSeed(int n, int m, const BitVec& seed,
                                     BitVec b, size_t repr_bits);

  /// True iff A is constant along its diagonals, i.e. representable by the
  /// n + m - 1 bit diagonal seed. Always true for SampleToeplitz hashes;
  /// the sketch codec checks it before seed-encoding a hash whose kind
  /// merely *claims* Toeplitz (FromParts accepts arbitrary matrices).
  bool HasToeplitzMatrix() const;

  /// The diagonal seed (first row read right-to-left, then down the first
  /// column; see gf2/toeplitz.hpp). Requires HasToeplitzMatrix().
  BitVec ToeplitzSeed() const;

  int n() const { return a_.cols(); }
  int m() const { return a_.rows(); }
  AffineHashKind kind() const { return kind_; }

  /// h(x) = A x + b for an n-bit input. Word-sized inputs (n <= 64) run
  /// word by word through EvalWord; wider ones through the dense matrix.
  BitVec Eval(const BitVec& x) const;

  /// Prefix slice h_l(x): the first l bits of h(x) (§2).
  BitVec EvalPrefix(const BitVec& x, int l) const;

  /// Convenience for word-sized universes (n <= 64): h applied to the n-bit
  /// big-endian encoding of `x`, returned as the m-bit value (requires
  /// m <= 64). Runs on the packed row words — one AND + popcount-parity
  /// per output bit, no BitVec allocation.
  uint64_t Eval64(uint64_t x) const;

  /// Element x of the word universe (n <= 64) in the input layout EvalWord
  /// takes: the n-bit big-endian encoding of x's low n bits at the top of
  /// the word — a one-word BitVec's storage.
  uint64_t PackInput(uint64_t x) const {
    MCF0_DCHECK(n() >= 1 && n() <= 64);
    return x << (64 - n());
  }

  /// Output word w of h for a word-sized input (n <= 64), allocation-free:
  /// bits [64 w, min(m, 64 w + 64)) of h(x) in the BitVec word layout
  /// (string position 64 w + k at word bit 63 - k, unused low bits zero),
  /// so words compare lexicographically as plain integers. `packed_x` is
  /// the input as PackInput returns it. One AND + popcount parity per
  /// output bit against the packed rows.
  uint64_t EvalWord(uint64_t packed_x, int w) const;

  /// ceil(m / 64): how many words EvalWord can produce.
  int out_words() const { return (m() + 63) / 64; }

  /// The hash restricted to its first l output bits as a standalone hash.
  AffineHash PrefixHash(int l) const;

  const Gf2Matrix& A() const { return a_; }
  const BitVec& b() const { return b_; }

  /// Bits needed to represent the sampled function: Theta(n + m) for
  /// Toeplitz, Theta(n * m) for (sparse) XOR — the contrast in §2.
  size_t RepresentationBits() const;

  /// Same function: identical matrix, offset, and sampling kind. Sketch
  /// merges require both sides to share hash state (§4); this is the check.
  bool operator==(const AffineHash& o) const {
    return kind_ == o.kind_ && a_ == o.a_ && b_ == o.b_;
  }

 private:
  AffineHash(Gf2Matrix a, BitVec b, AffineHashKind kind, size_t repr_bits);

  /// Output bits [first, first + count) of h for a word-sized input,
  /// left-aligned in the BitVec word layout; `first` is a multiple of 64,
  /// 1 <= count <= 64, and bits past count carry b's bits (callers mask).
  uint64_t EvalBits(uint64_t packed_x, int first, int count) const;

  Gf2Matrix a_;
  BitVec b_;
  AffineHashKind kind_;
  size_t repr_bits_;
  /// When n <= 64, row i of A packed into one word (the BitVec layout:
  /// input bit j at word bit 63 - j). Built once at construction so
  /// EvalWord / Eval64 / EvalPrefix on word-sized universes are AND +
  /// parity per output bit. Empty when n > 64. Derived state — not part
  /// of operator== or any serialized form.
  std::vector<uint64_t> packed_rows_;
};

}  // namespace mcf0
