// E2 — sketch space and per-item update time: both must be
// poly(1/eps, log N), independent of the stream length. Space table
// across eps, a kernel-tier table (scalar vs batched absorb on every
// GF(2) kernel tier this CPU offers, medians of 5), an Estimation
// row-absorb table (the fused kernel vs the per-hash HornerBatch
// reference on every tier, medians of 5) feeding BENCH_e02_hash.json,
// and google-benchmark timings for Add() when the library is available.
//
// Both tier tables double as gates: the batched span-Add path must not
// be slower than item-at-a-time Add on any tier, the fused row absorb
// must not be slower than the per-hash reference on any tier, and every
// (tier, path) combination must produce byte-identical sketch encodings
// and identical cells — tiers and batching change the implementation,
// never the result. Any violation exits 1. `--smoke` shrinks the streams
// for CI and skips the gbench section.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "engine/sketch_codec.hpp"
#include "hash/gf2_kernels.hpp"
#include "hash/gf2_poly.hpp"
#include "streaming/f0_sketch.hpp"

#if defined(MCF0_HAVE_GBENCH)
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace mcf0;

F0Params MakeParams(F0Algorithm alg, double eps) {
  F0Params params;
  params.n = 32;
  params.eps = eps;
  params.delta = 0.2;
  params.algorithm = alg;
  params.rows_override = 11;
  params.seed = 42;
  if (alg == F0Algorithm::kEstimation) {
    // Trim the per-item constant so benchmark calibration stays fast.
    params.thresh_override =
        static_cast<uint64_t>(std::ceil(24.0 / (eps * eps)));
    params.s_override = 5;
  }
  return params;
}

#if defined(MCF0_HAVE_GBENCH)
void BM_SketchAdd(benchmark::State& state) {
  const auto alg = static_cast<F0Algorithm>(state.range(0));
  const double eps = state.range(1) / 100.0;
  F0Estimator est(MakeParams(alg, eps));
  Rng rng(7);
  // Pre-fill so the steady-state path (saturated sketch) is measured.
  for (int i = 0; i < 4000; ++i) est.Add(rng.NextBelow(1u << 28));
  for (auto _ : state) {
    est.Add(rng.NextBelow(1u << 28));
  }
  state.counters["space_KiB"] =
      static_cast<double>(est.SpaceBits()) / 8192.0;
}

BENCHMARK(BM_SketchAdd)
    ->ArgsProduct({{static_cast<int>(F0Algorithm::kBucketing),
                    static_cast<int>(F0Algorithm::kMinimum),
                    static_cast<int>(F0Algorithm::kEstimation)},
                   {80, 40}})
    ->ArgNames({"alg", "eps_pct"});
#endif  // MCF0_HAVE_GBENCH

/// Tiers to benchmark: every tier this CPU can run, portable first.
std::vector<gf2k::KernelTier> TiersToMeasure() {
  std::vector<gf2k::KernelTier> tiers;
  for (const gf2k::KernelTier tier : gf2k::kAllKernelTiers) {
    if (gf2k::KernelTierAvailable(tier)) tiers.push_back(tier);
  }
  return tiers;
}

struct AbsorbRates {
  double scalar_elems_per_sec = 0.0;
  double batched_elems_per_sec = 0.0;
  std::string scalar_bytes;   // encoded sketch after the item-Add build
  std::string batched_bytes;  // encoded sketch after the span-Add build
};

/// Medians of `runs` timed builds on the *currently forced* tier: one set
/// item-at-a-time, one through the span path. Construction (hash
/// sampling) is excluded from the timed window.
AbsorbRates MeasureAbsorb(const F0Params& params,
                          const std::vector<uint64_t>& xs, int runs) {
  AbsorbRates rates;
  std::vector<double> scalar_runs;
  std::vector<double> batched_runs;
  // Interleave the two paths so load spikes (shared CI cores) hit both
  // measurements equally instead of biasing whichever ran later.
  for (int r = 0; r < runs; ++r) {
    {
      F0Estimator est(params);
      WallTimer timer;
      for (const uint64_t x : xs) est.Add(x);
      scalar_runs.push_back(static_cast<double>(xs.size()) / timer.Seconds());
      if (r == 0) rates.scalar_bytes = SketchCodec::Encode(est);
    }
    {
      F0Estimator est(params);
      WallTimer timer;
      est.Add(std::span<const uint64_t>(xs));
      batched_runs.push_back(static_cast<double>(xs.size()) / timer.Seconds());
      if (r == 0) rates.batched_bytes = SketchCodec::Encode(est);
    }
  }
  rates.scalar_elems_per_sec = Median(scalar_runs);
  rates.batched_elems_per_sec = Median(batched_runs);
  return rates;
}

/// The per-hash absorb the fused kernel replaced: each hash evaluates
/// 256-point blocks through EvalBatch (HornerBatch), then TrailZero64
/// and a max per output.
std::vector<int> HornerRowAbsorb(const EstimationSketchRow& row,
                                 std::span<const uint64_t> xs, int w) {
  std::vector<int> cells = row.cells();
  std::vector<uint64_t> out(256);
  for (size_t base = 0; base < xs.size(); base += out.size()) {
    const size_t len = std::min(out.size(), xs.size() - base);
    const std::span<uint64_t> block(out.data(), len);
    for (size_t j = 0; j < row.hashes().size(); ++j) {
      row.hashes()[j].EvalBatch(xs.subspan(base, len), block);
      for (const uint64_t h : block) {
        cells[j] = std::max(cells[j], TrailZero64(h, w));
      }
    }
  }
  return cells;
}

struct RowRates {
  double horner_items_per_sec = 0.0;
  double fused_items_per_sec = 0.0;
  std::vector<int> horner_cells;
  std::vector<int> fused_cells;
};

/// Medians of `runs` row absorbs on the *currently forced* tier, the two
/// paths interleaved; each run starts from a fresh copy of `row`.
RowRates MeasureRowAbsorb(const EstimationSketchRow& row,
                          const std::vector<uint64_t>& xs, int w, int runs) {
  RowRates rates;
  std::vector<double> horner_runs;
  std::vector<double> fused_runs;
  for (int r = 0; r < runs; ++r) {
    {
      WallTimer timer;
      rates.horner_cells = HornerRowAbsorb(row, xs, w);
      horner_runs.push_back(static_cast<double>(xs.size()) / timer.Seconds());
    }
    {
      EstimationSketchRow fused = row;
      WallTimer timer;
      fused.Add(std::span<const uint64_t>(xs));
      fused_runs.push_back(static_cast<double>(xs.size()) / timer.Seconds());
      rates.fused_cells = fused.cells();
    }
  }
  rates.horner_items_per_sec = Median(horner_runs);
  rates.fused_items_per_sec = Median(fused_runs);
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  mcf0::bench::Banner(
      "E2: F0 sketch update time and space",
      "per-item time O(1) amortized hash evaluations; space "
      "poly(1/eps, log N) independent of stream length");
  // Space table: fill until saturated, report bits across eps.
  std::printf("%-10s %5s %12s\n", "algorithm", "eps", "space_KiB");
  for (const auto alg : {F0Algorithm::kBucketing, F0Algorithm::kMinimum,
                         F0Algorithm::kEstimation}) {
    for (const double eps : {0.8, 0.4, 0.2}) {
      F0Estimator est(MakeParams(alg, eps));
      Rng rng(3);
      for (int i = 0; i < 8000; ++i) est.Add(rng.NextBelow(1u << 30));
      const char* name = alg == F0Algorithm::kBucketing    ? "Bucketing"
                         : alg == F0Algorithm::kMinimum    ? "Minimum"
                                                           : "Estimation";
      std::printf("%-10s %5.2f %12.1f\n", name, eps,
                  static_cast<double>(est.SpaceBits()) / 8192.0);
    }
  }

  // Kernel-tier table: the Estimation sketch is the polynomial-hash-bound
  // one, so its absorb rate is where the GF(2) kernel tier and the
  // batched (HornerBatch) path show up. Medians of 5 runs per cell.
  const size_t tier_elements = smoke ? 30000 : 200000;
  constexpr int kRuns = 5;
  const mcf0::F0Params tier_params =
      MakeParams(mcf0::F0Algorithm::kEstimation, 0.4);
  std::vector<uint64_t> xs(tier_elements);
  {
    mcf0::Rng rng(11);
    for (auto& x : xs) x = rng.NextBelow(1u << 28);
  }

  std::printf(
      "\n-- GF(2) kernel tiers: scalar vs batched absorb "
      "(Estimation, medians of %d) --\n",
      kRuns);
  std::printf("%-9s %9s %12s %12s %9s\n", "tier", "elements", "scalar/s",
              "batched/s", "speedup");
  struct TierRow {
    mcf0::gf2k::KernelTier tier;
    AbsorbRates rates;
  };
  std::vector<TierRow> rows;
  std::string reference_bytes;  // portable scalar build: the ground truth
  for (const mcf0::gf2k::KernelTier tier : TiersToMeasure()) {
    mcf0::gf2k::ForceKernelTier(tier);
    const AbsorbRates rates = MeasureAbsorb(tier_params, xs, kRuns);
    mcf0::gf2k::ForceKernelTier(std::nullopt);
    if (tier == mcf0::gf2k::KernelTier::kPortable) {
      reference_bytes = rates.scalar_bytes;
    }
    std::printf("%-9s %9zu %12.0f %12.0f %8.2fx\n",
                mcf0::gf2k::KernelTierName(tier), xs.size(),
                rates.scalar_elems_per_sec, rates.batched_elems_per_sec,
                rates.batched_elems_per_sec / rates.scalar_elems_per_sec);
    if (rates.scalar_bytes != reference_bytes ||
        rates.batched_bytes != reference_bytes) {
      std::printf("  ^ MISMATCH: %s sketch bytes diverged from the portable "
                  "scalar build!\n",
                  mcf0::gf2k::KernelTierName(tier));
      return 1;
    }
    if (rates.batched_elems_per_sec < rates.scalar_elems_per_sec) {
      std::printf("  ^ GATE FAILED: batched absorb slower than scalar on "
                  "tier %s\n",
                  mcf0::gf2k::KernelTierName(tier));
      return 1;
    }
    rows.push_back({tier, rates});
  }
  const double portable_scalar = rows.front().rates.scalar_elems_per_sec;
  double best_batched = 0.0;
  for (const TierRow& row : rows) {
    best_batched = std::max(best_batched, row.rates.batched_elems_per_sec);
  }
  std::printf("best batched vs portable scalar: %.2fx\n",
              best_batched / portable_scalar);

  // Row-absorb table: one Estimation row of the tier table's shape
  // (Thresh hashes of s coefficients over GF(2^n)) absorbing one stream,
  // fused kernel vs the per-hash HornerBatch reference. Cells must match
  // the portable reference on every tier.
  const size_t row_elements = smoke ? 5000 : 20000;
  const std::vector<uint64_t> row_stream(xs.begin(),
                                         xs.begin() + row_elements);
  const mcf0::Gf2Field field(tier_params.n);
  mcf0::F0RowSampler sampler(tier_params);
  const mcf0::EstimationSketchRow row =
      sampler.NextEstimationPair(&field).first;
  std::printf(
      "\n-- Estimation row absorb (%zu hashes, s=%d, w=%d): per-hash "
      "HornerBatch vs fused kernel (medians of %d) --\n",
      row.hashes().size(), row.hashes().front().s(), tier_params.n, kRuns);
  std::printf("%-9s %9s %12s %12s %9s\n", "tier", "elements", "horner/s",
              "fused/s", "speedup");
  struct RowAbsorbRow {
    mcf0::gf2k::KernelTier tier;
    RowRates rates;
  };
  std::vector<RowAbsorbRow> row_rows;
  std::vector<int> reference_cells;  // portable per-hash absorb
  for (const mcf0::gf2k::KernelTier tier : TiersToMeasure()) {
    mcf0::gf2k::ForceKernelTier(tier);
    const RowRates rates =
        MeasureRowAbsorb(row, row_stream, tier_params.n, kRuns);
    mcf0::gf2k::ForceKernelTier(std::nullopt);
    if (tier == mcf0::gf2k::KernelTier::kPortable) {
      reference_cells = rates.horner_cells;
    }
    std::printf("%-9s %9zu %12.0f %12.0f %8.2fx\n",
                mcf0::gf2k::KernelTierName(tier), row_stream.size(),
                rates.horner_items_per_sec, rates.fused_items_per_sec,
                rates.fused_items_per_sec / rates.horner_items_per_sec);
    if (rates.horner_cells != reference_cells ||
        rates.fused_cells != reference_cells) {
      std::printf("  ^ MISMATCH: %s row cells diverged from the portable "
                  "per-hash absorb!\n",
                  mcf0::gf2k::KernelTierName(tier));
      return 1;
    }
    if (rates.fused_items_per_sec < rates.horner_items_per_sec) {
      std::printf("  ^ GATE FAILED: fused row absorb slower than the "
                  "per-hash reference on tier %s\n",
                  mcf0::gf2k::KernelTierName(tier));
      return 1;
    }
    row_rows.push_back({tier, rates});
  }

  // Machine-readable summary (same manual-JSON idiom as BENCH_e17/e19).
  // Reaching this line means the byte-identity and not-slower gates held.
  std::ofstream json("BENCH_e02_hash.json");
  json << "{\n"
       << "  \"experiment\": \"e02_hash\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"detected_tier\": \""
       << mcf0::gf2k::KernelTierName(mcf0::gf2k::DetectedKernelTier())
       << "\",\n"
       << "  \"elements\": " << xs.size() << ",\n"
       << "  \"runs\": " << kRuns << ",\n"
       << "  \"tiers\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json << "    {\"tier\": \"" << mcf0::gf2k::KernelTierName(rows[i].tier)
         << "\", \"scalar_elems_per_sec\": "
         << rows[i].rates.scalar_elems_per_sec
         << ", \"batched_elems_per_sec\": "
         << rows[i].rates.batched_elems_per_sec << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"best_batched_over_portable_scalar\": "
       << best_batched / portable_scalar << ",\n"
       << "  \"row_elements\": " << row_stream.size() << ",\n"
       << "  \"row_absorb\": [\n";
  for (size_t i = 0; i < row_rows.size(); ++i) {
    json << "    {\"tier\": \""
         << mcf0::gf2k::KernelTierName(row_rows[i].tier)
         << "\", \"horner_items_per_sec\": "
         << row_rows[i].rates.horner_items_per_sec
         << ", \"fused_items_per_sec\": "
         << row_rows[i].rates.fused_items_per_sec << "}"
         << (i + 1 < row_rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"gate_batched_not_slower\": true,\n"
       << "  \"gate_fused_not_slower\": true,\n"
       << "  \"bytes_identical\": true,\n"
       << "  \"cells_identical\": true\n"
       << "}\n";
  std::printf("wrote BENCH_e02_hash.json\n\n");

#if defined(MCF0_HAVE_GBENCH)
  if (!smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
#endif
  return 0;
}
