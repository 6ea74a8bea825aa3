#include "hash/gf2_kernels.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#define MCF0_GF2K_X86 1
#include <immintrin.h>
#endif

#if defined(__aarch64__)
#define MCF0_GF2K_ARM 1
#include <arm_neon.h>
#if defined(__linux__)
#include <sys/auxv.h>
#endif
#endif

#include "common/check.hpp"
#include "hash/gf2_poly.hpp"
#include "obs/metrics.hpp"

namespace mcf0 {
namespace gf2k {
namespace {

// ---- portable tier --------------------------------------------------------

/// Shift-and-xor carry-less multiply — the reference implementation and
/// the kPortable tier. Iterates set bits of b only.
inline Product128 ClmulSoft(uint64_t a, uint64_t b) {
  Product128 p;
  while (b != 0) {
    const int i = __builtin_ctzll(b);
    b &= b - 1;
    p.lo ^= a << i;
    if (i != 0) p.hi ^= a >> (64 - i);
  }
  return p;
}

/// Fold reduction mod f = x^w + mod_low: split the product at x^w and
/// substitute x^w == mod_low until the high part vanishes. The high
/// part's degree drops below deg(mod_low) after one fold and strictly
/// decreases from there, so for the small lexicographically-minimal
/// moduli this runs 2-3 carry-less multiplies.
inline uint64_t ReduceSoft(Product128 p, int w, uint64_t mod_low) {
  if (w == 64) {
    while (p.hi != 0) {
      const Product128 f = ClmulSoft(p.hi, mod_low);
      p.hi = f.hi;
      p.lo ^= f.lo;
    }
    return p.lo;
  }
  const uint64_t mask = (1ull << w) - 1;
  uint64_t high = (p.hi << (64 - w)) | (p.lo >> w);
  uint64_t lo = p.lo & mask;
  while (high != 0) {
    const Product128 f = ClmulSoft(high, mod_low);
    high = (f.hi << (64 - w)) | (f.lo >> w);
    lo ^= f.lo & mask;
  }
  return lo;
}

inline uint64_t MulSoft(uint64_t a, uint64_t b, int w, uint64_t mod_low) {
  return ReduceSoft(ClmulSoft(a, b), w, mod_low);
}

void MulVecSoft(std::span<const uint64_t> a, std::span<const uint64_t> b,
                std::span<uint64_t> out, int w, uint64_t mod_low) {
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = MulSoft(a[i], b[i], w, mod_low);
  }
}

/// 4-bit window table for multiplying by a fixed x: t[v] = clmul(v, x)
/// for every nibble value v. Entries reach degree 66, so they carry a
/// 128-bit layout.
struct WindowTable {
  Product128 t[16];
};

inline WindowTable MakeWindow(uint64_t x) {
  WindowTable tab;
  tab.t[1] = {0, x};
  tab.t[2] = {x >> 63, x << 1};
  tab.t[4] = {x >> 62, x << 2};
  tab.t[8] = {x >> 61, x << 3};
  for (int v = 3; v < 16; ++v) {
    if ((v & (v - 1)) == 0) continue;  // powers of two already filled
    const int high_bit = 1 << (31 - __builtin_clz(static_cast<unsigned>(v)));
    tab.t[v] = {tab.t[high_bit].hi ^ tab.t[v - high_bit].hi,
                tab.t[high_bit].lo ^ tab.t[v - high_bit].lo};
  }
  return tab;
}

/// Carry-less multiply of a by the x captured in `tab`: Horner over the
/// `nibbles` low nibbles of a (all a can occupy — field elements keep
/// their high 64-w bits clear), one shift-4 + table XOR each.
/// Branchless, and roughly twice the speed of ClmulSoft's set-bit loop
/// on random operands — the portable batch path's real amortization,
/// since one table serves every multiply by the same x.
inline Product128 ClmulWindow(uint64_t a, const WindowTable& tab,
                              int nibbles) {
  Product128 r;
  for (int k = nibbles - 1; k >= 0; --k) {
    r.hi = (r.hi << 4) | (r.lo >> 60);
    r.lo <<= 4;
    const Product128& t = tab.t[(a >> (4 * k)) & 15];
    r.hi ^= t.hi;
    r.lo ^= t.lo;
  }
  return r;
}

void HornerBatchSoft(std::span<const uint64_t> coeffs,
                     std::span<const uint64_t> xs, std::span<uint64_t> out,
                     int w, uint64_t mod_low) {
  const uint64_t mask = (w == 64) ? ~0ull : ((1ull << w) - 1);
  const uint64_t top = coeffs.back();
  const int nibbles = (w + 3) >> 2;
  for (size_t i = 0; i < xs.size(); ++i) {
    const uint64_t x = xs[i] & mask;
    const WindowTable tab = MakeWindow(x);
    uint64_t acc = top;
    for (size_t k = coeffs.size() - 1; k-- > 0;) {
      acc = ReduceSoft(ClmulWindow(acc, tab, nibbles), w, mod_low) ^ coeffs[k];
    }
    out[i] = acc;
  }
}

// ---- fused Estimation-row kernel: the body every scalar tier shares ------

/// One fused call's field: width, mask, modulus, and the number of folds
/// that reduces any product of two field elements.
struct FieldShape {
  int w = 0;
  uint64_t mask = 0;
  uint64_t mod_low = 0;
  int folds = 0;
};

/// A product of two field elements has degree <= 2w - 2, and each fold
/// maps a part of degree D >= w to one of degree <= D - w + deg(mod_low).
/// Counting those steps once per field fixes the fold count, so the
/// reduction never branches on data.
FieldShape MakeFieldShape(int w, uint64_t mod_low) {
  const int mod_degree = 63 - std::countl_zero(mod_low);
  int degree = 2 * w - 2;
  int folds = 0;
  while (degree >= w) {
    degree += mod_degree - w;
    ++folds;
  }
  return {w, w == 64 ? ~0ull : (1ull << w) - 1, mod_low, folds};
}

/// Scratch for the powers of a block of points: on the stack up to
/// kStack elements (every in-tree s), on the heap beyond.
template <class T, size_t kStack>
class PowerScratch {
 public:
  explicit PowerScratch(size_t n) {
    if (n > kStack) {
      heap_.resize(n);
      data_ = heap_.data();
    }
  }
  PowerScratch(const PowerScratch&) = delete;
  PowerScratch& operator=(const PowerScratch&) = delete;
  T* data() { return data_; }

 private:
  std::array<T, kStack> stack_;
  std::vector<T> heap_;
  T* data_ = stack_.data();
};

/// The operands of one fused call, shared by every tier's body.
struct FusedArgs {
  const uint64_t* coeffs = nullptr;  ///< k-major: coeffs[k * polys + j]
  size_t polys = 0;
  int s = 0;
  std::span<const uint64_t> xs;
  int* cells = nullptr;
  FieldShape field;
};

/// Fixed-fold reduction of an unreduced product for w <= 32, where the
/// whole product fits one word.
template <class Ops>
inline uint64_t ReduceNarrow(const Ops& ops, uint64_t p, const FieldShape& f) {
  uint64_t lo = p & f.mask;
  uint64_t high = p >> f.w;
  for (int i = 0; i < f.folds; ++i) {
    const uint64_t g = ops.MulModulus(high).lo;
    high = g >> f.w;
    lo ^= g & f.mask;
  }
  return lo;
}

/// Bits w .. w+63 of a 128-bit product; (lo >> 1) >> (w - 1) keeps the
/// shift defined at w = 64.
inline uint64_t HighPart(Product128 p, int w) {
  return (p.hi << (64 - w)) | ((p.lo >> 1) >> (w - 1));
}

/// Fixed-fold reduction of an unreduced 128-bit product for w > 32.
template <class Ops>
inline uint64_t ReduceWide(const Ops& ops, Product128 p, const FieldShape& f) {
  uint64_t lo = p.lo & f.mask;
  uint64_t high = HighPart(p, f.w);
  for (int i = 0; i < f.folds; ++i) {
    const Product128 g = ops.MulModulus(high);
    high = HighPart(g, f.w);
    lo ^= g.lo & f.mask;
  }
  return lo;
}

/// The scalar fused body, templated on the tier's carry-less multiply:
/// Ops::Prepare(v) turns a multiplier into the tier's Factor,
/// Ops::Mul / MulLo multiply a field element by one, and
/// Ops::MulModulus multiplies by mod_low for a fold. Per point it
/// prepares x^1 .. x^(s-1) once; per polynomial it XORs the unreduced
/// products a_k x^k, reduces once and takes the capped trailing-zero
/// count. Products fit one word for w <= 32 (kWide = false) and 128 bits
/// up to w = 64.
template <bool kWide, class Ops>
inline void FusedBody(const Ops& ops, const FusedArgs& a) {
  const FieldShape& f = a.field;
  const size_t polys = a.polys;
  PowerScratch<typename Ops::Factor, 16> scratch(
      static_cast<size_t>(a.s - 1));
  auto* powers = scratch.data();
  for (const uint64_t raw : a.xs) {
    uint64_t power = raw & f.mask;
    for (int k = 1; k < a.s; ++k) {
      if (k > 1) {
        if constexpr (kWide) {
          power = ReduceWide(ops, ops.Mul(power, powers[0]), f);
        } else {
          power = ReduceNarrow(ops, ops.MulLo(power, powers[0]), f);
        }
      }
      powers[k - 1] = ops.Prepare(power);
    }
    for (size_t j = 0; j < polys; ++j) {
      uint64_t value;
      if constexpr (kWide) {
        Product128 acc{0, a.coeffs[j]};
        for (int k = 1; k < a.s; ++k) {
          const Product128 p = ops.Mul(a.coeffs[k * polys + j], powers[k - 1]);
          acc.hi ^= p.hi;
          acc.lo ^= p.lo;
        }
        value = ReduceWide(ops, acc, f);
      } else {
        uint64_t acc = a.coeffs[j];
        for (int k = 1; k < a.s; ++k) {
          acc ^= ops.MulLo(a.coeffs[k * polys + j], powers[k - 1]);
        }
        value = ReduceNarrow(ops, acc, f);
      }
      a.cells[j] = std::max(a.cells[j], TrailZero64(value, f.w));
    }
  }
}

/// Portable tier: one window table per power and point, so every
/// multiply by that power is a nibble walk with no data-dependent branch.
/// A fold walks the set bits of the sparse modulus — a count fixed per
/// field.
struct SoftOps {
  using Factor = WindowTable;
  int nibbles;
  uint64_t mod_low;
  static Factor Prepare(uint64_t v) { return MakeWindow(v); }
  Product128 Mul(uint64_t a, const Factor& t) const {
    return ClmulWindow(a, t, nibbles);
  }
  uint64_t MulLo(uint64_t a, const Factor& t) const { return Mul(a, t).lo; }
  Product128 MulModulus(uint64_t high) const {
    return ClmulSoft(high, mod_low);
  }
};

/// Points per bit-sliced block: one per bit of a word.
constexpr size_t kSliceLanes = 64;

/// Largest sliced product: degree <= 2w - 2 < 127.
constexpr int kMaxSlicedDegree = 127;

/// Bit-sliced form of 64 field elements: word b holds bit b of every
/// point, point i at bit i.
void SliceBlock(const uint64_t* xs, const FieldShape& f, uint64_t* out) {
  for (int b = 0; b < f.w; ++b) {
    uint64_t word = 0;
    for (size_t i = 0; i < kSliceLanes; ++i) {
      word |= ((xs[i] >> b) & 1) << i;
    }
    out[b] = word;
  }
}

/// Reduces a sliced polynomial of degree <= top mod x^w + mod_low, top
/// down: bit t >= w moves to t - w + m for every set bit m of mod_low,
/// which lands below t, so one pass clears every bit from top to w.
void ReduceSliced(uint64_t* c, int top, const FieldShape& f) {
  for (int t = top; t >= f.w; --t) {
    for (uint64_t m = f.mod_low; m != 0; m &= m - 1) {
      c[t - f.w + std::countr_zero(m)] ^= c[t];
    }
  }
}

/// The portable body on whole 64-point blocks, bit-sliced: multiplying
/// a sliced power by a coefficient is w word XORs per set coefficient
/// bit for all 64 points at once, and the powers are sliced products
/// reduced the same way. `powers` holds (s - 1) * w words.
void FusedSliced(const FusedArgs& a, uint64_t* powers) {
  const FieldShape& f = a.field;
  const size_t polys = a.polys;
  const int w = f.w;
  std::array<uint64_t, kMaxSlicedDegree> acc;
  for (size_t base = 0; base < a.xs.size(); base += kSliceLanes) {
    if (a.s > 1) SliceBlock(a.xs.data() + base, f, powers);
    for (int k = 2; k < a.s; ++k) {
      const uint64_t* prev = powers + (k - 2) * w;
      uint64_t* next = powers + (k - 1) * w;
      std::fill(acc.begin(), acc.begin() + 2 * w - 1, 0);
      for (int i = 0; i < w; ++i) {
        for (int b = 0; b < w; ++b) acc[i + b] ^= prev[i] & powers[b];
      }
      ReduceSliced(acc.data(), 2 * w - 2, f);
      std::copy(acc.begin(), acc.begin() + w, next);
    }
    for (size_t j = 0; j < polys; ++j) {
      std::fill(acc.begin(), acc.begin() + 2 * w - 1, 0);
      for (uint64_t c = a.coeffs[j]; c != 0; c &= c - 1) {
        acc[std::countr_zero(c)] = ~0ull;
      }
      for (int k = 1; k < a.s; ++k) {
        const uint64_t* power = powers + (k - 1) * w;
        for (uint64_t c = a.coeffs[k * polys + j]; c != 0; c &= c - 1) {
          uint64_t* dst = acc.data() + std::countr_zero(c);
          for (int t = 0; t < w; ++t) dst[t] ^= power[t];
        }
      }
      ReduceSliced(acc.data(), 2 * w - 2, f);
      // The largest trailing-zero count over the block: how many low
      // bits stay zero in at least one point, capped at w.
      int zeros = 0;
      uint64_t alive = ~0ull;
      while (zeros < w && (alive &= ~acc[zeros]) != 0) ++zeros;
      a.cells[j] = std::max(a.cells[j], zeros);
    }
  }
}

/// kPortable: whole 64-point blocks bit-sliced, the remainder (and
/// single items) through the shared body on window tables.
void FusedSoft(FusedArgs a) {
  const size_t sliced_points = a.xs.size() / kSliceLanes * kSliceLanes;
  if (sliced_points != 0) {
    PowerScratch<uint64_t, 16 * 64> powers(static_cast<size_t>(a.s - 1) *
                                           64);
    FusedArgs head = a;
    head.xs = a.xs.first(sliced_points);
    FusedSliced(head, powers.data());
  }
  a.xs = a.xs.subspan(sliced_points);
  if (a.xs.empty()) return;
  const SoftOps ops{(a.field.w + 3) >> 2, a.field.mod_low};
  if (a.field.w > 32) {
    FusedBody<true>(ops, a);
  } else {
    FusedBody<false>(ops, a);
  }
}

// ---- x86-64 PCLMULQDQ tier ------------------------------------------------

#if defined(MCF0_GF2K_X86)
#define MCF0_TARGET_CLMUL __attribute__((target("pclmul,sse4.1")))

/// Product + fold reduction entirely in PCLMULQDQ. Mirrors ReduceSoft
/// exactly — same folds, same result — with each carry-less multiply a
/// single instruction.
MCF0_TARGET_CLMUL inline uint64_t MulClmul(uint64_t a, uint64_t b, int w,
                                           uint64_t mod_low) {
  const __m128i vmod = _mm_set_epi64x(0, static_cast<long long>(mod_low));
  __m128i prod =
      _mm_clmulepi64_si128(_mm_set_epi64x(0, static_cast<long long>(a)),
                           _mm_set_epi64x(0, static_cast<long long>(b)), 0x00);
  uint64_t hi = static_cast<uint64_t>(_mm_extract_epi64(prod, 1));
  uint64_t lo = static_cast<uint64_t>(_mm_cvtsi128_si64(prod));
  if (w == 64) {
    while (hi != 0) {
      const __m128i f = _mm_clmulepi64_si128(
          _mm_set_epi64x(0, static_cast<long long>(hi)), vmod, 0x00);
      hi = static_cast<uint64_t>(_mm_extract_epi64(f, 1));
      lo ^= static_cast<uint64_t>(_mm_cvtsi128_si64(f));
    }
    return lo;
  }
  const uint64_t mask = (1ull << w) - 1;
  uint64_t high = (hi << (64 - w)) | (lo >> w);
  lo &= mask;
  while (high != 0) {
    const __m128i f = _mm_clmulepi64_si128(
        _mm_set_epi64x(0, static_cast<long long>(high)), vmod, 0x00);
    const uint64_t fhi = static_cast<uint64_t>(_mm_extract_epi64(f, 1));
    const uint64_t flo = static_cast<uint64_t>(_mm_cvtsi128_si64(f));
    high = (fhi << (64 - w)) | (flo >> w);
    lo ^= flo & mask;
  }
  return lo;
}

MCF0_TARGET_CLMUL Product128 CarrylessMulClmul(uint64_t a, uint64_t b) {
  const __m128i prod =
      _mm_clmulepi64_si128(_mm_set_epi64x(0, static_cast<long long>(a)),
                           _mm_set_epi64x(0, static_cast<long long>(b)), 0x00);
  return {static_cast<uint64_t>(_mm_extract_epi64(prod, 1)),
          static_cast<uint64_t>(_mm_cvtsi128_si64(prod))};
}

MCF0_TARGET_CLMUL void MulVecClmul(std::span<const uint64_t> a,
                                   std::span<const uint64_t> b,
                                   std::span<uint64_t> out, int w,
                                   uint64_t mod_low) {
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = MulClmul(a[i], b[i], w, mod_low);
  }
}

MCF0_TARGET_CLMUL void HornerBatchClmul(std::span<const uint64_t> coeffs,
                                        std::span<const uint64_t> xs,
                                        std::span<uint64_t> out, int w,
                                        uint64_t mod_low) {
  const uint64_t mask = (w == 64) ? ~0ull : ((1ull << w) - 1);
  const uint64_t top = coeffs.back();
  for (size_t i = 0; i < xs.size(); ++i) {
    const uint64_t x = xs[i] & mask;
    uint64_t acc = top;
    for (size_t k = coeffs.size() - 1; k-- > 0;) {
      acc = MulClmul(acc, x, w, mod_low) ^ coeffs[k];
    }
    out[i] = acc;
  }
}

/// kClmul operations for the shared fused body: a multiplier needs no
/// preparation, each product is one PCLMULQDQ.
struct ClmulOps {
  using Factor = uint64_t;
  uint64_t mod_low;
  static Factor Prepare(uint64_t v) { return v; }
  MCF0_TARGET_CLMUL static Product128 Mul(uint64_t a, uint64_t b) {
    return CarrylessMulClmul(a, b);
  }
  MCF0_TARGET_CLMUL static uint64_t MulLo(uint64_t a, uint64_t b) {
    return static_cast<uint64_t>(_mm_cvtsi128_si64(_mm_clmulepi64_si128(
        _mm_cvtsi64_si128(static_cast<long long>(a)),
        _mm_cvtsi64_si128(static_cast<long long>(b)), 0x00)));
  }
  MCF0_TARGET_CLMUL Product128 MulModulus(uint64_t high) const {
    return CarrylessMulClmul(high, mod_low);
  }
};

// flatten: the shared body and every ClmulOps call inline here, under
// this function's target, instead of staying calls across the target
// boundary.
MCF0_TARGET_CLMUL __attribute__((flatten)) void FusedClmul(
    const FusedArgs& a) {
  const ClmulOps ops{a.field.mod_low};
  if (a.field.w > 32) {
    FusedBody<true>(ops, a);
  } else {
    FusedBody<false>(ops, a);
  }
}

// ---- x86-64 AVX-512 VPCLMULQDQ tier -----------------------------------------

#define MCF0_TARGET_VPCLMUL \
  __attribute__((target("avx512f,avx512vl,avx512cd,vpclmulqdq")))

// GCC 12's AVX-512 headers seed unmasked results with a self-initialised
// placeholder (_mm512_undefined_epi32) that -Wmaybe-uninitialized flags
// once inlined; the value is always overwritten.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// Points per block of the vector body: the block's powers (s - 1
/// vectors per 8 points) stay in L1 while all polynomials sweep it.
constexpr size_t kVecBlock = 64;

/// Low words of the 8 lane-wise carry-less products a[i] * b[i], exact
/// when every product fits one word (w <= 32). VPCLMULQDQ multiplies one
/// qword per 128-bit lane, so the even and odd lanes take one
/// instruction each and unpack back into point order.
MCF0_TARGET_VPCLMUL inline __m512i ClmulLo8(__m512i a, __m512i b) {
  return _mm512_unpacklo_epi64(_mm512_clmulepi64_epi128(a, b, 0x00),
                               _mm512_clmulepi64_epi128(a, b, 0x11));
}

/// ReduceNarrow on 8 lanes, with `folds` fixed at compile time when
/// kFolds > 0.
template <int kFolds>
MCF0_TARGET_VPCLMUL inline __m512i Reduce8(__m512i p, int folds, __m512i mask,
                                           __m512i mod, __m128i shift) {
  __m512i lo = _mm512_and_si512(p, mask);
  __m512i high = _mm512_srl_epi64(p, shift);
  for (int i = 0; i < (kFolds > 0 ? kFolds : folds); ++i) {
    const __m512i g = ClmulLo8(high, mod);
    high = _mm512_srl_epi64(g, shift);
    lo = _mm512_xor_si512(lo, _mm512_and_si512(g, mask));
  }
  return lo;
}

/// The fused body 8 points per vector, for w <= 32 and a point count
/// that is a multiple of 8. `powers` holds (s - 1) * kVecBlock words.
/// Each lane keeps the lowest set bit of (value | 2^w), so the largest
/// one over the block is 2^(max capped trailing zeros). kFolds > 0 fixes
/// the fold count at compile time (see FusedVpclmul).
template <int kFolds>
MCF0_TARGET_VPCLMUL void FusedVpclmulNarrow(const FusedArgs& a,
                                            uint64_t* powers) {
  const FieldShape& f = a.field;
  const size_t polys = a.polys;
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(f.mask));
  const __m512i mod = _mm512_set1_epi64(static_cast<long long>(f.mod_low));
  const __m512i cap = _mm512_set1_epi64(1ll << f.w);
  const __m128i shift = _mm_cvtsi32_si128(f.w);
  const __m512i zero = _mm512_setzero_si512();
  for (size_t base = 0; base < a.xs.size(); base += kVecBlock) {
    const size_t vecs = std::min(kVecBlock, a.xs.size() - base) / 8;
    for (size_t v = 0; v < vecs; ++v) {
      const __m512i x = _mm512_and_si512(
          _mm512_loadu_si512(a.xs.data() + base + 8 * v), mask);
      __m512i power = x;
      for (int k = 1; k < a.s; ++k) {
        if (k > 1) {
          power = Reduce8<kFolds>(ClmulLo8(power, x), f.folds, mask, mod,
                                  shift);
        }
        _mm512_storeu_si512(powers + (k - 1) * kVecBlock + 8 * v, power);
      }
    }
    for (size_t j = 0; j < polys; ++j) {
      const __m512i a0 = _mm512_set1_epi64(static_cast<long long>(a.coeffs[j]));
      __m512i best = zero;
      for (size_t v = 0; v < vecs; ++v) {
        // Even and odd lanes accumulate apart; a0 rides in both, and the
        // unpack keeps each product's low word.
        __m512i even = a0;
        __m512i odd = a0;
        for (int k = 1; k < a.s; ++k) {
          const __m512i c = _mm512_set1_epi64(
              static_cast<long long>(a.coeffs[k * polys + j]));
          const __m512i p =
              _mm512_loadu_si512(powers + (k - 1) * kVecBlock + 8 * v);
          even = _mm512_xor_si512(even, _mm512_clmulepi64_epi128(c, p, 0x00));
          odd = _mm512_xor_si512(odd, _mm512_clmulepi64_epi128(c, p, 0x11));
        }
        const __m512i value = _mm512_or_si512(
            Reduce8<kFolds>(_mm512_unpacklo_epi64(even, odd), f.folds, mask,
                            mod, shift),
            cap);
        const __m512i lowest =
            _mm512_and_si512(value, _mm512_sub_epi64(zero, value));
        best = _mm512_max_epu64(best, lowest);
      }
      a.cells[j] = std::max(
          a.cells[j], std::countr_zero(static_cast<uint64_t>(
                          _mm512_reduce_max_epu64(best))));
    }
  }
}

/// kVpclmul: full vectors of points through the vector body, the
/// remainder (and every w > 32) through the kClmul body.
void FusedVpclmul(FusedArgs a) {
  if (a.field.w > 32) {
    FusedClmul(a);
    return;
  }
  const size_t vector_points = a.xs.size() / 8 * 8;
  if (vector_points != 0) {
    PowerScratch<uint64_t, 16 * kVecBlock> scratch(
        static_cast<size_t>(a.s - 1) * kVecBlock);
    uint64_t* powers = scratch.data();
    FusedArgs head = a;
    head.xs = a.xs.first(vector_points);
    // Every in-tree field needs at most two folds (a fold of a zero high
    // part is a no-op), and a compile-time count lets the compiler
    // schedule the whole reduction: ~10% on the row.
    if (a.field.folds <= 2) {
      FusedVpclmulNarrow<2>(head, powers);
    } else {
      FusedVpclmulNarrow<0>(head, powers);
    }
  }
  a.xs = a.xs.subspan(vector_points);
  if (!a.xs.empty()) FusedClmul(a);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // MCF0_GF2K_X86

// ---- arm64 NEON PMULL tier ------------------------------------------------

#if defined(MCF0_GF2K_ARM)
#define MCF0_TARGET_PMULL __attribute__((target("+crypto")))

MCF0_TARGET_PMULL inline Product128 CarrylessMulPmullRaw(uint64_t a,
                                                         uint64_t b) {
  const poly128_t prod =
      vmull_p64(static_cast<poly64_t>(a), static_cast<poly64_t>(b));
  const uint64x2_t v = vreinterpretq_u64_p128(prod);
  return {vgetq_lane_u64(v, 1), vgetq_lane_u64(v, 0)};
}

MCF0_TARGET_PMULL inline uint64_t MulPmull(uint64_t a, uint64_t b, int w,
                                           uint64_t mod_low) {
  Product128 p = CarrylessMulPmullRaw(a, b);
  if (w == 64) {
    while (p.hi != 0) {
      const Product128 f = CarrylessMulPmullRaw(p.hi, mod_low);
      p.hi = f.hi;
      p.lo ^= f.lo;
    }
    return p.lo;
  }
  const uint64_t mask = (1ull << w) - 1;
  uint64_t high = (p.hi << (64 - w)) | (p.lo >> w);
  uint64_t lo = p.lo & mask;
  while (high != 0) {
    const Product128 f = CarrylessMulPmullRaw(high, mod_low);
    high = (f.hi << (64 - w)) | (f.lo >> w);
    lo ^= f.lo & mask;
  }
  return lo;
}

MCF0_TARGET_PMULL void MulVecPmull(std::span<const uint64_t> a,
                                   std::span<const uint64_t> b,
                                   std::span<uint64_t> out, int w,
                                   uint64_t mod_low) {
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = MulPmull(a[i], b[i], w, mod_low);
  }
}

MCF0_TARGET_PMULL void HornerBatchPmull(std::span<const uint64_t> coeffs,
                                        std::span<const uint64_t> xs,
                                        std::span<uint64_t> out, int w,
                                        uint64_t mod_low) {
  const uint64_t mask = (w == 64) ? ~0ull : ((1ull << w) - 1);
  const uint64_t top = coeffs.back();
  for (size_t i = 0; i < xs.size(); ++i) {
    const uint64_t x = xs[i] & mask;
    uint64_t acc = top;
    for (size_t k = coeffs.size() - 1; k-- > 0;) {
      acc = MulPmull(acc, x, w, mod_low) ^ coeffs[k];
    }
    out[i] = acc;
  }
}

/// kPmull operations for the shared fused body.
struct PmullOps {
  using Factor = uint64_t;
  uint64_t mod_low;
  static Factor Prepare(uint64_t v) { return v; }
  MCF0_TARGET_PMULL static Product128 Mul(uint64_t a, uint64_t b) {
    return CarrylessMulPmullRaw(a, b);
  }
  MCF0_TARGET_PMULL static uint64_t MulLo(uint64_t a, uint64_t b) {
    return CarrylessMulPmullRaw(a, b).lo;
  }
  MCF0_TARGET_PMULL Product128 MulModulus(uint64_t high) const {
    return CarrylessMulPmullRaw(high, mod_low);
  }
};

MCF0_TARGET_PMULL __attribute__((flatten)) void FusedPmull(
    const FusedArgs& a) {
  const PmullOps ops{a.field.mod_low};
  if (a.field.w > 32) {
    FusedBody<true>(ops, a);
  } else {
    FusedBody<false>(ops, a);
  }
}
#endif  // MCF0_GF2K_ARM

// ---- detection and dispatch -----------------------------------------------

bool CpuHasClmul() {
#if defined(MCF0_GF2K_X86)
  return __builtin_cpu_supports("pclmul") != 0;
#else
  return false;
#endif
}

/// The scalar entry points run the kClmul code under kVpclmul, so the
/// tier also needs PCLMULQDQ (which every VPCLMULQDQ CPU has).
bool CpuHasVpclmul() {
#if defined(MCF0_GF2K_X86)
  return CpuHasClmul() && __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0 &&
         __builtin_cpu_supports("avx512cd") != 0 &&
         __builtin_cpu_supports("vpclmulqdq") != 0;
#else
  return false;
#endif
}

bool CpuHasPmull() {
#if defined(MCF0_GF2K_ARM) && defined(__linux__)
  // HWCAP_PMULL == (1 << 4) on arm64 Linux; spelled numerically so the
  // header set stays minimal.
  return (getauxval(AT_HWCAP) & (1ul << 4)) != 0;
#else
  return false;
#endif
}

bool EnvForcesPortable() {
  const char* value = std::getenv("MCF0_FORCE_PORTABLE");
  if (value == nullptr) return false;
  return std::strcmp(value, "1") == 0 || std::strcmp(value, "true") == 0;
}

obs::Gauge* TierGauge() {
  static obs::Gauge* gauge =
      obs::Registry::Global().GetGauge("mcf0_hash_kernel_tier");
  return gauge;
}

/// Bench/test override; -1 = none. Read relaxed on every dispatch —
/// one extra load on the scalar path, hoisted entirely in the batch
/// entry points.
std::atomic<int>& OverrideTier() {
  static std::atomic<int> tier{-1};
  return tier;
}

KernelTier ResolveDetectedTier() {
  if (EnvForcesPortable()) return KernelTier::kPortable;
  if (CpuHasPmull()) return KernelTier::kPmull;
  if (CpuHasVpclmul()) return KernelTier::kVpclmul;
  if (CpuHasClmul()) return KernelTier::kClmul;
  return KernelTier::kPortable;
}

}  // namespace

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kPortable: return "portable";
    case KernelTier::kClmul: return "clmul";
    case KernelTier::kPmull: return "pmull";
    case KernelTier::kVpclmul: return "vpclmul";
  }
  return "?";
}

KernelTier DetectedKernelTier() {
  static const KernelTier tier = [] {
    const KernelTier resolved = ResolveDetectedTier();
    TierGauge()->Set(static_cast<int64_t>(resolved));
    return resolved;
  }();
  return tier;
}

KernelTier ActiveKernelTier() {
  const int forced = OverrideTier().load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<KernelTier>(forced);
  return DetectedKernelTier();
}

bool KernelTierAvailable(KernelTier tier) {
  switch (tier) {
    case KernelTier::kPortable: return true;
    case KernelTier::kClmul: return CpuHasClmul();
    case KernelTier::kPmull: return CpuHasPmull();
    case KernelTier::kVpclmul: return CpuHasVpclmul();
  }
  return false;
}

void ForceKernelTier(std::optional<KernelTier> tier) {
  if (tier.has_value()) {
    MCF0_CHECK(KernelTierAvailable(*tier));
    OverrideTier().store(static_cast<int>(*tier), std::memory_order_relaxed);
    TierGauge()->Set(static_cast<int64_t>(*tier));
  } else {
    OverrideTier().store(-1, std::memory_order_relaxed);
    TierGauge()->Set(static_cast<int64_t>(DetectedKernelTier()));
  }
}

Product128 CarrylessMulWithTier(KernelTier tier, uint64_t a, uint64_t b) {
  switch (tier) {
#if defined(MCF0_GF2K_X86)
    case KernelTier::kClmul:
    case KernelTier::kVpclmul: return CarrylessMulClmul(a, b);
#endif
#if defined(MCF0_GF2K_ARM)
    case KernelTier::kPmull: return CarrylessMulPmullRaw(a, b);
#endif
    default: return ClmulSoft(a, b);
  }
}

Product128 CarrylessMul(uint64_t a, uint64_t b) {
  return CarrylessMulWithTier(ActiveKernelTier(), a, b);
}

uint64_t MulWithTier(KernelTier tier, uint64_t a, uint64_t b, int w,
                     uint64_t mod_low) {
  switch (tier) {
#if defined(MCF0_GF2K_X86)
    case KernelTier::kClmul:
    case KernelTier::kVpclmul: return MulClmul(a, b, w, mod_low);
#endif
#if defined(MCF0_GF2K_ARM)
    case KernelTier::kPmull: return MulPmull(a, b, w, mod_low);
#endif
    default: return MulSoft(a, b, w, mod_low);
  }
}

uint64_t Mul(uint64_t a, uint64_t b, int w, uint64_t mod_low) {
  return MulWithTier(ActiveKernelTier(), a, b, w, mod_low);
}

void MulVec(std::span<const uint64_t> a, std::span<const uint64_t> b,
            std::span<uint64_t> out, int w, uint64_t mod_low) {
  MCF0_CHECK(a.size() == out.size() && b.size() == out.size());
  switch (ActiveKernelTier()) {
#if defined(MCF0_GF2K_X86)
    case KernelTier::kClmul:
    case KernelTier::kVpclmul: MulVecClmul(a, b, out, w, mod_low); return;
#endif
#if defined(MCF0_GF2K_ARM)
    case KernelTier::kPmull: MulVecPmull(a, b, out, w, mod_low); return;
#endif
    default: MulVecSoft(a, b, out, w, mod_low); return;
  }
}

void HornerBatchWithTier(KernelTier tier, std::span<const uint64_t> coeffs,
                         std::span<const uint64_t> xs, std::span<uint64_t> out,
                         int w, uint64_t mod_low) {
  MCF0_CHECK(!coeffs.empty() && xs.size() == out.size());
  switch (tier) {
#if defined(MCF0_GF2K_X86)
    case KernelTier::kClmul:
    case KernelTier::kVpclmul:
      HornerBatchClmul(coeffs, xs, out, w, mod_low);
      return;
#endif
#if defined(MCF0_GF2K_ARM)
    case KernelTier::kPmull:
      HornerBatchPmull(coeffs, xs, out, w, mod_low);
      return;
#endif
    default: HornerBatchSoft(coeffs, xs, out, w, mod_low); return;
  }
}

void HornerBatch(std::span<const uint64_t> coeffs,
                 std::span<const uint64_t> xs, std::span<uint64_t> out, int w,
                 uint64_t mod_low) {
  HornerBatchWithTier(ActiveKernelTier(), coeffs, xs, out, w, mod_low);
}

void TrailZeroMaxBatchWithTier(KernelTier tier,
                               std::span<const uint64_t> coeffs,
                               std::span<const uint64_t> xs,
                               std::span<int> cells, int w, uint64_t mod_low) {
  // deg(mod_low) < w is what makes every fold lower the degree.
  MCF0_CHECK(w >= 1 && w <= 64 && (w == 64 || (mod_low >> w) == 0));
  if (cells.empty()) {
    MCF0_CHECK(coeffs.empty());
    return;
  }
  MCF0_CHECK(!coeffs.empty() && coeffs.size() % cells.size() == 0);
  FusedArgs args;
  args.coeffs = coeffs.data();
  args.polys = cells.size();
  args.s = static_cast<int>(coeffs.size() / cells.size());
  args.xs = xs;
  args.cells = cells.data();
  args.field = MakeFieldShape(w, mod_low);
  switch (tier) {
#if defined(MCF0_GF2K_X86)
    case KernelTier::kClmul: FusedClmul(args); return;
    case KernelTier::kVpclmul: FusedVpclmul(args); return;
#endif
#if defined(MCF0_GF2K_ARM)
    case KernelTier::kPmull: FusedPmull(args); return;
#endif
    default: FusedSoft(args); return;
  }
}

void TrailZeroMaxBatch(std::span<const uint64_t> coeffs,
                       std::span<const uint64_t> xs, std::span<int> cells,
                       int w, uint64_t mod_low) {
  TrailZeroMaxBatchWithTier(ActiveKernelTier(), coeffs, xs, cells, w,
                            mod_low);
}

}  // namespace gf2k
}  // namespace mcf0
