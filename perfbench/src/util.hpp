// Shared helpers of perfbench: clocks, order statistics, latency samples,
// the metric report and the process's peak RSS.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Lower median; 0 for an empty sample.
inline double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[(xs.size() - 1) / 2];
}

/// Nearest-rank quantile q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  return xs[static_cast<size_t>(std::llround(rank))];
}

/// Geometric mean of positive values (0 if any value is not positive).
inline double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : xs) {
    if (!(x > 0.0)) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

/// Peak resident set of this process in MiB (Linux reports KiB).
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Latency samples of an open-loop request stream. Each request is timed
/// from when it was *due*, so a stall also charges the requests queued
/// behind it; lateness is how far the generator itself fell behind.
struct LatencySample {
  std::vector<double> latency_us;
  std::vector<double> lateness_us;
  uint64_t failed = 0;

  void Append(const LatencySample& o) {
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
    lateness_us.insert(lateness_us.end(), o.lateness_us.begin(),
                       o.lateness_us.end());
    failed += o.failed;
  }
};

/// Metric values of one run, printed as the result line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }
  /// Records a wrong output; the run then prints correct=false and exits 1.
  void Mismatch(const std::string& what) {
    std::fprintf(stderr, "perfbench: MISMATCH: %s\n", what.c_str());
    correct_ = false;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

  /// The single result line: correct, attempted, failed, metrics.
  void Print() const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, entry] : metrics_) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(entry.first) ? entry.first : 0.0);
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
             entry.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace perfbench
