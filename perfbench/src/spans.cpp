#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

std::map<std::string, double> SpanRecorder::SelfMillisByLayer(
    const std::set<std::string>& roots) const {
  std::lock_guard<std::mutex> lock(mu_);
  // A parent is always recorded before its children, so one forward
  // pass finds every span's root.
  std::vector<size_t> root(spans_.size());
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t parent = spans_[i].parent;
    root[i] = parent < 0 ? i : root[static_cast<size_t>(parent)];
    if (parent >= 0) children[static_cast<size_t>(parent)].push_back(i);
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (roots.count(spans_[root[i]].name) == 0) continue;
    // Children may run on other threads and overlap; subtract the union
    // of their intervals, clipped to the parent's.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    for (const size_t c : children[i]) {
      const auto lo = std::max(spans_[c].start, span.start);
      const auto hi = std::min(spans_[c].end, span.end);
      if (lo < hi) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double covered_us = 0.0;
    for (size_t k = 0; k < covered.size();) {
      auto lo = covered[k].first;
      auto hi = covered[k].second;
      for (++k; k < covered.size() && covered[k].first <= hi; ++k) {
        hi = std::max(hi, covered[k].second);
      }
      covered_us += MicrosBetween(lo, hi);
    }
    const double self_us = MicrosBetween(span.start, span.end) - covered_us;
    const std::string layer = span.name.substr(0, span.name.find('.'));
    self_ms[layer] += self_us / 1e3;
  }
  return self_ms;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"parent\": " << span.parent
        << ", \"request_id\": " << span.request_id
        << ", \"start_us\": " << MicrosBetween(origin, span.start)
        << ", \"end_us\": " << MicrosBetween(origin, span.end) << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
