// perfbench: the repository benchmark. One workload per run:
//
//   perfbench --workload build|serve|reduce --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the workload untraced and traced (the difference is the tracing
// overhead), then the per-layer ladder, and reports the per-layer
// metrics. The last line of stdout is the result object; the line before
// it is the run context. Any byte or count mismatch against the
// single-pass references exits 1. See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/version.hpp"
#include "hash/gf2_kernels.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Set-ups at the start of every slice, so they sample the whole run.
constexpr int kSetupsPerSlice = 3;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload build|serve|reduce "
               "--seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Context ParseArgs(int argc, char** argv) {
  Context ctx;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      ctx.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(ctx.seconds > 0.0) || ctx.seconds > 120.0) {
        Usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      ctx.trace = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
  return ctx;
}

/// Results from another kernel tier, core count or build type are not
/// comparable; this line says which ones a result came from.
void PrintContext(const Context& ctx) {
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"git_sha\": \"%s\", \"kernel_tier\": \"%s\", "
      "\"nproc\": %d, \"build_type\": \"%s\", \"build_shards\": %d, "
      "\"serve_shards\": %d, \"serve_pushers\": %d}}\n",
      ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
      ctx.seconds, ctx.trace ? 1 : 0, mcf0::kGitSha,
      mcf0::gf2k::KernelTierName(mcf0::gf2k::ActiveKernelTier()), ctx.nproc,
      PERFBENCH_BUILD_TYPE, BuildShards(ctx), ServeShards(ctx),
      ServePushers(ctx));
}

/// A run's figure from its samples. The host runs in phases of several
/// seconds, up to 1.7 times faster while its neighbours idle; reading
/// the slow end (the lower decile of rates, the upper decile of times)
/// gives the speed of the common, contended phase unless bursts cover
/// nine tenths of the run.
double LegRate(const std::vector<double>& pass_rates) {
  return Quantile(pass_rates, 0.1);
}
double SetupSeconds(const std::vector<double>& setup_s) {
  return Quantile(setup_s, 0.9);
}

/// Runs the legs in turn, each for a slice of about a second per turn,
/// until `seconds` have passed and every leg has a pass; each slice
/// starts with kSetupsPerSlice timed set-ups. One untimed set-up and one
/// untimed pass of every leg warm caches and idle cores first.
/// Interleaving the legs spreads any drift of the host over all of them
/// alike.
void Measure(Workload& workload, double seconds, Report* report,
             Measured* measured) {
  Measured warm_up;
  (void)workload.SetupOnce();
  for (int leg = 0; leg < kNumLegs; ++leg) {
    workload.RunPass(static_cast<Leg>(leg), -1, report, &warm_up);
  }
  constexpr double kSliceS = 1.0;
  std::array<int, kNumLegs> passes{};
  const Clock::time_point start = Clock::now();
  for (int leg = 0; SecondsSince(start) < seconds || passes[leg] == 0;
       leg = (leg + 1) % kNumLegs) {
    for (int i = 0; i < kSetupsPerSlice; ++i) {
      measured->setup_s.push_back(workload.SetupOnce());
    }
    const Clock::time_point slice = Clock::now();
    do {
      workload.RunPass(static_cast<Leg>(leg), passes[leg]++, report,
                       measured);
    } while (SecondsSince(slice) < kSliceS);
  }
}

double SketchBytes(const Inputs& in) {
  double bytes = 0.0;
  for (const std::string& blob : in.reference) bytes += blob.size();
  return bytes;
}

void EndToEnd(const Context& ctx, Workload& workload, Report* report) {
  Measured measured;
  Measure(workload, ctx.seconds, report, &measured);

  for (int leg = 0; leg < kNumLegs; ++leg) {
    report->Set(std::string("ops_per_s.") + kLegNames[leg],
                LegRate(measured.ops_per_s[leg]), "1/s");
  }
  report->Set("setup_s", SetupSeconds(measured.setup_s), "s");
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  report->Set("sketch_bytes", SketchBytes(workload.inputs()), "bytes");
  const double attempted = static_cast<double>(report->attempted());
  report->Set("ok_ratio",
              (attempted - static_cast<double>(report->failed())) / attempted,
              "ratio");
  // Diagnostics (not the result): every pass's rate.
  std::string passes;
  for (int leg = 0; leg < kNumLegs; ++leg) {
    passes += std::string(leg == 0 ? "" : ", ") + "\"" + kLegNames[leg] +
              "\": [";
    for (size_t i = 0; i < measured.ops_per_s[leg].size(); ++i) {
      passes += (i == 0 ? "" : ", ") +
                std::to_string(measured.ops_per_s[leg][i]);
    }
    passes += "]";
  }
  std::printf("{\"ops_per_s\": {%s}}\n", passes.c_str());
}

double GeoMeanRate(const Measured& m) {
  std::vector<double> rates;
  for (const auto& passes : m.ops_per_s) rates.push_back(LegRate(passes));
  return GeoMean(rates);
}

void Traced(const Context& ctx, Workload& workload, Report* report) {
  // Half the budget untraced, half traced: the difference is the cost
  // of the benchmark's own spans.
  Measured untraced;
  Measure(workload, ctx.seconds / 2, report, &untraced);
  SpanRecorder::Global().SetEnabled(true);
  Measured traced;
  Measure(workload, ctx.seconds / 2, report, &traced);
  const double off = GeoMeanRate(untraced);
  const double on = GeoMeanRate(traced);
  report->Set("trace.overhead_pct", 100.0 * (off - on) / off, "%");

  RunLadder(ctx, workload.inputs(), report);

  // Self time of fixed-work spans only: the single-pass references, the
  // raw ladder and the ladder's counted serve rounds. The traced half of
  // the workload runs for a fixed time, so its span time would follow
  // --seconds rather than what a layer costs.
  const auto self_ms = SpanRecorder::Global().SelfMillisByLayer(
      {"streaming.estimator_add", "setstream.add", "ladder.raw",
       "ladder.serve"});
  for (const char* layer :
       {"hash", "streaming", "setstream", "engine", "codec", "net"}) {
    const auto it = self_ms.find(layer);
    report->Set(std::string("self_ms.") + layer,
                it == self_ms.end() ? 0.0 : it->second, "ms");
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Context ctx = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(ctx.workload);
  if (workload == nullptr) Usage(("unknown workload " + ctx.workload).c_str());
  PrintContext(ctx);
  std::fflush(stdout);

  // The traced run also records the single-pass reference passes: they
  // are the serial `streaming` / `setstream` rungs of the ladder.
  SpanRecorder::Global().SetEnabled(ctx.trace);
  const Clock::time_point prepare_start = Clock::now();
  workload->Prepare(ctx);
  std::fprintf(stderr, "perfbench: inputs and references took %.2f s\n",
               SecondsSince(prepare_start));
  SpanRecorder::Global().SetEnabled(false);

  Report report;
  if (ctx.trace) {
    Traced(ctx, *workload, &report);
    const std::string dir = ".bench_build/spans";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + ctx.workload + "-seed" +
                             std::to_string(ctx.seed) + ".jsonl";
    if (ec || !SpanRecorder::Global().WriteJsonLines(path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                   SpanRecorder::Global().size(), path.c_str());
    }
  } else {
    EndToEnd(ctx, *workload, &report);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
