/// \file gf2_kernels.hpp
/// \brief Vectorized GF(2) carry-less-multiply kernels with runtime CPU
/// dispatch — the arithmetic backend of `Gf2Field`, `PolynomialHash` and
/// the Estimation sketch row.
///
/// Four tiers implement the same 64x64 -> 128 carry-less multiply and
/// the fold-based reduction mod an irreducible f = x^w + f_low:
///
///   * kPortable — shift-and-xor software multiply. Always available;
///     the reference every other tier must match bit-for-bit. The fused
///     Estimation kernel bit-slices whole blocks of 64 points.
///   * kClmul    — x86-64 PCLMULQDQ, detected via CPUID at first use.
///   * kPmull    — arm64 NEON PMULL, detected via HWCAP at first use.
///   * kVpclmul  — x86-64 AVX-512F/VL/CD + VPCLMULQDQ: the fused
///     Estimation kernel runs 8 points per vector for w <= 32. Every
///     other entry point (and the fused kernel for w > 32) runs the
///     kClmul code under this tier.
///
/// Tiers change the *implementation* of the arithmetic, never its
/// results: a field product is a unique element, so sketches built under
/// any tier are byte-identical (pinned by tests/gf2_kernels_test.cpp and
/// the E17/E18 gates). Dispatch is resolved once, at first use, from the
/// CPU plus the `MCF0_FORCE_PORTABLE=1` environment override, and
/// reported through the `mcf0_hash_kernel_tier` gauge so `mcf0 serve`
/// stats show which kernel is live.
///
/// The batch entry points (`MulVec`, `HornerBatch`, `TrailZeroMaxBatch`)
/// hoist the tier switch, the modulus, and the field mask out of the
/// element loop — that amortization is where most of the batched-absorb
/// speedup comes from even before the carry-less multiply gets hardware
/// help.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

namespace mcf0 {
namespace gf2k {

/// Kernel tiers, ordered by preference. The numeric values are what the
/// `mcf0_hash_kernel_tier` gauge reports.
enum class KernelTier : int {
  kPortable = 0,  ///< software shift-and-xor (always available)
  kClmul = 1,     ///< x86-64 PCLMULQDQ
  kPmull = 2,     ///< arm64 NEON PMULL
  kVpclmul = 3,   ///< x86-64 AVX-512 + VPCLMULQDQ
};

/// Every tier, in enum order — tests and benches filter it through
/// KernelTierAvailable() to cover whatever this CPU offers.
inline constexpr std::array<KernelTier, 4> kAllKernelTiers = {
    KernelTier::kPortable, KernelTier::kClmul, KernelTier::kPmull,
    KernelTier::kVpclmul};

/// Tier name for logs / bench tables ("portable", "clmul", "pmull",
/// "vpclmul").
const char* KernelTierName(KernelTier tier);

/// The tier detection resolved: best tier the CPU supports, demoted to
/// kPortable when the environment sets MCF0_FORCE_PORTABLE=1 (or =true).
/// Resolved once per process, then constant.
KernelTier DetectedKernelTier();

/// The tier actually used by every kernel call: the bench/test override
/// when one is set, DetectedKernelTier() otherwise.
KernelTier ActiveKernelTier();

/// Bench/test-only override. Forcing a tier the CPU does not support is
/// a checked error; pass std::nullopt to return to detection. Updates
/// the mcf0_hash_kernel_tier gauge. Not for production call sites — the
/// environment override (MCF0_FORCE_PORTABLE) is the supported switch.
void ForceKernelTier(std::optional<KernelTier> tier);

/// True iff `tier` can execute on this CPU (kPortable always can).
bool KernelTierAvailable(KernelTier tier);

/// A polynomial over GF(2) of degree <= 127: the 64x64 carry-less
/// product. lo holds x^0..x^63, hi holds x^64..x^127.
struct Product128 {
  uint64_t hi = 0;
  uint64_t lo = 0;
};

/// Carry-less 64x64 -> 128 multiply on the active tier.
Product128 CarrylessMul(uint64_t a, uint64_t b);

/// Carry-less multiply on an explicit tier (parity tests; requires
/// KernelTierAvailable(tier)).
Product128 CarrylessMulWithTier(KernelTier tier, uint64_t a, uint64_t b);

/// Field multiply in GF(2^w) with modulus x^w + mod_low: carry-less
/// product then fold reduction (x^w == mod_low mod f, applied until the
/// high part is gone — a couple of carry-less multiplies instead of the
/// bit-at-a-time long division). Operands must have their high 64-w bits
/// clear. Active tier.
uint64_t Mul(uint64_t a, uint64_t b, int w, uint64_t mod_low);

/// Field multiply on an explicit tier (parity tests).
uint64_t MulWithTier(KernelTier tier, uint64_t a, uint64_t b, int w,
                     uint64_t mod_low);

/// Element-wise field multiply: out[i] = a[i] * b[i] in GF(2^w). Spans
/// must have equal length (out may alias a or b). The tier switch and
/// modulus setup are hoisted out of the loop.
void MulVec(std::span<const uint64_t> a, std::span<const uint64_t> b,
            std::span<uint64_t> out, int w, uint64_t mod_low);

/// Batched Horner evaluation of the degree-(s-1) polynomial with
/// coefficient masks `coeffs` (constant term first) at each point of
/// `xs`: out[i] = h(xs[i] & mask). One batch shares the coefficient
/// array, modulus, and kernel selection across all elements; the result
/// equals s-1 scalar Mul/XOR steps per element, bit for bit.
void HornerBatch(std::span<const uint64_t> coeffs,
                 std::span<const uint64_t> xs, std::span<uint64_t> out, int w,
                 uint64_t mod_low);

/// HornerBatch on an explicit tier (parity tests / tier benches).
void HornerBatchWithTier(KernelTier tier, std::span<const uint64_t> coeffs,
                         std::span<const uint64_t> xs, std::span<uint64_t> out,
                         int w, uint64_t mod_low);

/// Fused Estimation-row absorb over P = cells.size() polynomials of s
/// coefficients each, s = coeffs.size() / P. `coeffs` is k-major:
/// coeffs[k * P + j] is the coefficient of x^k in p_j, a field element
/// (high 64-w bits clear). Raises cells[j] to the largest
/// TrailZero64(p_j(x & mask), w) over x in xs.
///
/// Per point the powers x^2 .. x^(s-1) are computed once and shared by
/// all P polynomials; each polynomial then XORs its *unreduced*
/// carry-less products a_k x^k and reduces once, with a fold count fixed
/// per field — no data-dependent branch. Cells equal s-1 Horner steps +
/// TrailZero64 per (point, polynomial), bit for bit; a zero coefficient
/// adds nothing, so shorter polynomials zero-pad to s.
void TrailZeroMaxBatch(std::span<const uint64_t> coeffs,
                       std::span<const uint64_t> xs, std::span<int> cells,
                       int w, uint64_t mod_low);

/// TrailZeroMaxBatch on an explicit tier (parity tests / tier benches).
void TrailZeroMaxBatchWithTier(KernelTier tier,
                               std::span<const uint64_t> coeffs,
                               std::span<const uint64_t> xs,
                               std::span<int> cells, int w, uint64_t mod_low);

}  // namespace gf2k
}  // namespace mcf0
